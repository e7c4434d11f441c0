"""Differential tests: int-backed GF(2) kernel vs the numpy reference.

The fast kernel in ``repro.gf2`` (Python-int bit vectors, pivot-mask
Gauss reduction) claims *zero* behavior change against the original
numpy-words implementation preserved in ``gf2_oracles``.  These
tests make the claim executable:

* hypothesis drives random operation sequences (set / flip / ixor /
  insert / reduce / decode) through both kernels and asserts identical
  results **and** identical :class:`OpCounter` totals — the cost-model
  contract the Figure-8 benches and the checked-in goldens rely on;
* a regression pin on :meth:`BitVector.key` / ``hash`` verifies the
  serialized layout (little-endian uint64 words) never drifted.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.counters import OpCounter
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import IncrementalRref

from gf2_oracles import GF2Matrix, ReferenceBitVector, ReferenceRref


def _pair(nbits: int) -> tuple[BitVector, ReferenceBitVector]:
    return BitVector.zeros(nbits), ReferenceBitVector.zeros(nbits)


def _assert_same(fast: BitVector, ref: ReferenceBitVector) -> None:
    assert fast.nbits == ref.nbits
    assert fast.key() == ref.key()
    assert fast.weight() == ref.weight()
    assert fast.is_zero() == ref.is_zero()
    assert fast.first_index() == ref.first_index()
    assert list(fast.indices()) == list(ref.indices())


# ----------------------------------------------------------------------
# BitVector op sequences
# ----------------------------------------------------------------------
_vec_ops = st.lists(
    st.tuples(
        st.sampled_from(["set", "clear", "flip", "ixor"]),
        st.integers(min_value=0, max_value=10_000),
    ),
    max_size=60,
)


@settings(max_examples=120, deadline=None)
@given(nbits=st.integers(1, 200), ops=_vec_ops, seed=st.integers(0, 2**31))
def test_bitvector_op_sequences_match_reference(nbits, ops, seed):
    rng = np.random.default_rng(seed)
    mix = ReferenceBitVector.random(nbits, rng, density=0.4)
    mix_fast = BitVector(nbits, mix.words)
    fast, ref = _pair(nbits)
    for op, raw in ops:
        i = raw % nbits
        if op == "set":
            fast.set(i)
            ref.set(i)
        elif op == "clear":
            fast.set(i, False)
            ref.set(i, False)
        elif op == "flip":
            fast.flip(i)
            ref.flip(i)
        else:
            fast.ixor(mix_fast)
            ref.ixor(mix)
        _assert_same(fast, ref)
    # get() agrees bit-for-bit at the end of the sequence.
    assert [fast.get(i) for i in range(nbits)] == [
        ref.get(i) for i in range(nbits)
    ]


@settings(max_examples=80, deadline=None)
@given(nbits=st.integers(0, 200), seed=st.integers(0, 2**31))
def test_random_constructor_consumes_identical_rng_stream(nbits, seed):
    # Same seed -> same Bernoulli draws -> same bits in both kernels,
    # i.e. the kernel swap is invisible to any seeded experiment.
    fast = BitVector.random(nbits, np.random.default_rng(seed), density=0.3)
    ref = ReferenceBitVector.random(
        nbits, np.random.default_rng(seed), density=0.3
    )
    assert fast.key() == ref.key()


# ----------------------------------------------------------------------
# IncrementalRref: insert / reduce / decode + OpCounter totals
# ----------------------------------------------------------------------
@st.composite
def _rref_case(draw):
    k = draw(st.integers(1, 64))
    m = draw(st.one_of(st.none(), st.integers(1, 8)))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**31))
    return k, m, n, seed


@settings(max_examples=100, deadline=None)
@given(_rref_case())
def test_rref_sequences_match_reference_including_counters(case):
    k, m, n, seed = case
    rng = np.random.default_rng(seed)
    fast = IncrementalRref(k, payload_nbytes=m, counter=OpCounter())
    ref = ReferenceRref(k, payload_nbytes=m, counter=OpCounter())
    for _ in range(n):
        bits = (rng.random(k) < 0.35).astype(np.uint8)
        payload = (
            rng.integers(0, 256, size=m, dtype=np.uint8)
            if m is not None
            else None
        )
        fv = BitVector.from_bits(bits)
        rv = ReferenceBitVector.from_indices(k, np.flatnonzero(bits))
        if rng.random() < 0.25:
            fr, fp = fast.reduce(fv, payload)
            rr, rp = ref.reduce(rv, payload)
            assert fr.key() == rr.key()
            assert (fp is None) == (rp is None)
            if fp is not None:
                assert np.array_equal(fp, rp)
        assert fast.insert(fv, payload) == ref.insert(rv, payload)
        assert fast.rank == ref.rank
        assert fast.is_innovative(fv) == ref.is_innovative(rv)
    assert fast.pivot_columns() == ref.pivot_columns()
    assert [r.key() for r in fast.basis_rows()] == [
        r.key() for r in ref.basis_rows()
    ]
    # The cost-model contract: every counted op, same total.
    assert fast.counter.snapshot() == ref.counter.snapshot()
    if m is not None and fast.is_full_rank():
        assert ref.is_full_rank()
        assert [p.tobytes() for p in fast.decode()] == [
            p.tobytes() for p in ref.decode()
        ]


@settings(max_examples=60, deadline=None)
@given(
    nrows=st.integers(0, 20),
    ncols=st.integers(1, 40),
    seed=st.integers(0, 2**31),
)
def test_from_dense_packbits_matches_reference_bits(nrows, ncols, seed):
    rng = np.random.default_rng(seed)
    dense = rng.integers(0, 4, size=(nrows, ncols))  # values mod 2 matter
    mat = GF2Matrix.from_dense(dense)
    assert mat.nrows == nrows
    for i in range(nrows):
        expected = ReferenceBitVector.from_indices(
            ncols, np.flatnonzero(dense[i] % 2)
        )
        assert mat.rows[i].key() == expected.key()
    if nrows:  # an empty GF2Matrix has always collapsed to ncols == 0
        assert np.array_equal(mat.to_dense(), dense % 2)


# ----------------------------------------------------------------------
# key() / hash layout regression pins
# ----------------------------------------------------------------------
def test_key_layout_is_little_endian_uint64_words():
    # Bit i lives in word i >> 6 at position i & 63; words serialize
    # little-endian.  Pinned against hand-built byte strings so any
    # future kernel swap that drifts the layout fails loudly.
    v = BitVector.from_indices(70, [0, 1, 63, 64, 69])
    expected = ((1 << 0) | (1 << 1) | (1 << 63)).to_bytes(8, "little") + (
        (1 << 0) | (1 << 5)
    ).to_bytes(8, "little")
    assert v.key() == expected
    assert v.nwords() == 2
    assert list(v.words) == [
        (1 << 0) | (1 << 1) | (1 << 63),
        (1 << 0) | (1 << 5),
    ]


@pytest.mark.parametrize("nbits", [0, 1, 63, 64, 65, 128, 200])
def test_key_and_hash_match_numpy_reference(nbits):
    rng = np.random.default_rng(nbits)
    ref = ReferenceBitVector.random(nbits, rng, density=0.5)
    fast = BitVector(nbits, ref.words)
    assert fast.key() == ref.key() == ref.words.tobytes()
    # hash() is derived from (nbits, key()) in both kernels, so hashed
    # containers see identical keys across the swap.
    assert hash(fast) == hash((nbits, fast.key())) == hash(ref)


def test_words_property_round_trips():
    v = BitVector.from_indices(130, [0, 64, 129])
    w = v.words
    assert w.dtype == np.uint64 and w.shape == (3,)
    assert BitVector(130, w) == v
