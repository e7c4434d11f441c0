"""Differential tests: numpy multi-row kernel vs int kernel vs reference.

:class:`repro.gf2.batch.BatchRref` claims *zero* behavior change
against both the int-backed :class:`~repro.gf2.matrix.IncrementalRref`
and the original numpy-words implementation preserved in
``repro.gf2.reference`` — same residuals, same basis, same payload
algebra, and identical :class:`OpCounter` totals (the cost-model
contract the Figure-8 benches rely on).  These tests make the claim
executable three ways:

* hypothesis drives random insert / reduce / is_innovative sequences
  through all three kernels in lock-step, including the receiver's
  check-then-insert pattern whose second reduction the kernels replay
  from the first;
* the block API (:meth:`batch_insert` / :meth:`batch_reduce`) is pinned
  equivalent to sequential calls, charges included;
* :func:`make_rref` heuristic selection is pinned (int kernel below
  :data:`BATCH_RREF_MIN_COLS`, numpy at or above, explicit overrides).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.counters import OpCounter
from repro.errors import DecodingError, DimensionError
from repro.gf2 import BATCH_RREF_MIN_COLS, BatchRref, IncrementalRref, make_rref
from repro.gf2.bitvec import BitVector
from repro.gf2.reference import ReferenceBitVector, ReferenceRref


def _triple(ncols, nbytes):
    counters = (OpCounter(), OpCounter(), OpCounter())
    return (
        IncrementalRref(ncols, payload_nbytes=nbytes, counter=counters[0]),
        BatchRref(ncols, payload_nbytes=nbytes, counter=counters[1]),
        ReferenceRref(ncols, payload_nbytes=nbytes, counter=counters[2]),
        counters,
    )


def _random_vec(rng, ncols):
    d = int(rng.integers(1, ncols + 1))
    cols = rng.choice(ncols, size=d, replace=False).tolist()
    return (
        BitVector.from_indices(ncols, cols),
        ReferenceBitVector.from_indices(ncols, cols),
    )


def _vecs(ncols, cols):
    return (
        BitVector.from_indices(ncols, cols),
        ReferenceBitVector.from_indices(ncols, cols),
    )


def _ref_int(ref_vec):
    return int.from_bytes(ref_vec.key(), "little")


def _insert3(kernels, vecs, payload):
    """Insert one row into (int, numpy, reference); the common result."""
    (a, b, r), (vec, rvec) = kernels, vecs
    outs = {
        a.insert(vec, None if payload is None else payload.copy()),
        b.insert(vec, None if payload is None else payload.copy()),
        r.insert(rvec, None if payload is None else payload.copy()),
    }
    assert len(outs) == 1
    return outs.pop()


# ----------------------------------------------------------------------
# Three-way op sequences
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    ncols=st.integers(1, 150),
    nbytes=st.sampled_from([None, 8]),
    seed=st.integers(0, 2**31),
    n_ops=st.integers(1, 80),
)
def test_op_sequences_match_int_and_reference(ncols, nbytes, seed, n_ops):
    rng = np.random.default_rng(seed)
    a, b, r, (ca, cb, cr) = _triple(ncols, nbytes)
    for _ in range(n_ops):
        vec, rvec = _random_vec(rng, ncols)
        payload = (
            rng.integers(0, 256, size=nbytes, dtype=np.uint8)
            if nbytes
            else None
        )
        op = int(rng.integers(0, 6))
        if op == 0:
            _insert3((a, b, r), (vec, rvec), payload)
        elif op == 1:
            xa, pa = a.reduce(vec, payload)
            xb, pb = b.reduce(vec, payload)
            xr, pr = r.reduce(rvec, payload)
            assert xa.key() == xb.key() == xr.key()
            if payload is not None:
                assert np.array_equal(pa, pb)
                assert np.array_equal(pa, pr)
        elif op == 2:
            outs = {
                a.is_innovative(vec),
                b.is_innovative(vec),
                r.is_innovative(rvec),
            }
            assert len(outs) == 1
        else:
            # The receiver's pattern: check, then insert the same row,
            # with nothing in between (3), an innovative insert that
            # grows the rank (4), or a non-innovative one (5).
            checked = {
                a.is_innovative(vec),
                b.is_innovative(vec),
                r.is_innovative(rvec),
            }
            assert len(checked) == 1
            free = sorted(set(range(ncols)) - set(a.pivot_columns()))
            if op == 4 and free:
                unit = [int(rng.choice(free))]
                assert _insert3((a, b, r), _vecs(ncols, unit), payload)
            elif op == 5:
                rows = a.basis_rows()
                cols = rows[int(rng.integers(len(rows)))].indices_list() if rows else []
                assert not _insert3((a, b, r), _vecs(ncols, cols), payload)
            _insert3((a, b, r), (vec, rvec), payload)
        assert a.rank == b.rank == r.rank
        assert a.pivot_columns() == b.pivot_columns()
        assert [v.key() for v in a.basis_rows()] == [
            v.key() for v in b.basis_rows()
        ]
        assert ca.counts == cb.counts, "numpy kernel drifted from int"
        assert ca.counts == cr.counts, "int kernel drifted from reference"
    if a.is_full_rank() and nbytes:
        assert all(
            np.array_equal(x, y) for x, y in zip(a.decode(), b.decode())
        )


def test_full_rank_decode_matches_int_kernel():
    ncols, nbytes = 96, 16
    rng = np.random.default_rng(5)
    a, b, _, (ca, cb, _) = _triple(ncols, nbytes)
    while not a.is_full_rank():
        vec, _rv = _random_vec(rng, ncols)
        payload = rng.integers(0, 256, size=nbytes, dtype=np.uint8)
        assert a.insert(vec, payload.copy()) == b.insert(vec, payload.copy())
    assert b.is_full_rank()
    assert ca.counts == cb.counts
    for x, y in zip(a.decode(), b.decode()):
        assert np.array_equal(x, y)


def test_symbolic_kernels_drop_payloads():
    ncols = 70
    a, b, r, (ca, cb, cr) = _triple(ncols, None)
    zeros, ones = np.zeros(4, np.uint8), np.ones(4, np.uint8)
    held, probe = _vecs(ncols, [1, 5]), _vecs(ncols, [1, 5, 9])
    assert _insert3((a, b, r), held, zeros)
    for kernel in (a, b):
        residual, payload = kernel.reduce(probe[0], ones)
        assert payload is None
        assert residual.indices_list() == [9]
    r.reduce(probe[1], ones)
    assert _insert3((a, b, r), probe, ones)
    assert ca.counts == cb.counts == cr.counts


@pytest.mark.parametrize("kernel", [IncrementalRref, BatchRref])
@pytest.mark.parametrize("nbytes", [None, 3])
@pytest.mark.parametrize("ncols", [1, 64, 70, 130])
def test_load_identity_equals_unit_inserts(kernel, nbytes, ncols):
    rng = np.random.default_rng(ncols)
    payloads = (
        rng.integers(0, 256, size=(ncols, nbytes), dtype=np.uint8)
        if nbytes
        else None
    )
    loaded = kernel(ncols, payload_nbytes=nbytes)
    loaded.load_identity(payloads)
    inserted = kernel(ncols, payload_nbytes=nbytes)
    for i in range(ncols):
        inserted.insert(
            BitVector.from_indices(ncols, [i]),
            None if payloads is None else payloads[i],
        )
    assert loaded.counter.counts == inserted.counter.counts == {
        "table_op": 3 * ncols
    }
    assert loaded.pivot_columns() == inserted.pivot_columns()
    assert [v.key() for v in loaded.basis_rows()] == [
        v.key() for v in inserted.basis_rows()
    ]
    if nbytes:
        payloads[0] ^= 0xFF  # the basis holds its own copy
        for x, y in zip(loaded.decode(), inserted.decode()):
            assert np.array_equal(x, y)
    for _ in range(5):
        vec, _rv = _random_vec(rng, ncols)
        assert loaded.reduce(vec)[0].key() == inserted.reduce(vec)[0].key()
        assert not loaded.insert(vec) and not inserted.insert(vec)
    assert loaded.counter.counts == inserted.counter.counts
    with pytest.raises(DimensionError):
        loaded.load_identity()  # the basis is no longer empty
    if nbytes:
        with pytest.raises(DimensionError):
            kernel(ncols, payload_nbytes=nbytes).load_identity(
                np.zeros((ncols, nbytes + 1), np.uint8)
            )


# ----------------------------------------------------------------------
# Block API
# ----------------------------------------------------------------------
def test_batch_insert_equals_sequential_inserts():
    ncols, nbytes = 80, 12
    rng = np.random.default_rng(11)
    c_seq, c_blk = OpCounter(), OpCounter()
    seq = BatchRref(ncols, payload_nbytes=nbytes, counter=c_seq)
    blk = BatchRref(ncols, payload_nbytes=nbytes, counter=c_blk)
    vecs = [_random_vec(rng, ncols)[0] for _ in range(120)]
    pays = rng.integers(0, 256, size=(len(vecs), nbytes), dtype=np.uint8)
    res_seq = [seq.insert(v, p.copy()) for v, p in zip(vecs, pays)]
    res_blk = blk.batch_insert(vecs, pays)
    assert res_seq == res_blk
    assert c_seq.counts == c_blk.counts
    assert [v.key() for v in seq.basis_rows()] == [
        v.key() for v in blk.basis_rows()
    ]
    assert seq.pivot_columns() == blk.pivot_columns()


def test_batch_insert_accepts_word_matrix():
    ncols = 70
    rng = np.random.default_rng(13)
    vecs = [_random_vec(rng, ncols)[0] for _ in range(40)]
    nwords = (ncols + 63) >> 6
    matrix = np.stack(
        [
            np.frombuffer(v._x.to_bytes(nwords * 8, "little"), dtype=np.uint64)
            for v in vecs
        ]
    )
    a = BatchRref(ncols)
    b = BatchRref(ncols)
    assert a.batch_insert(vecs) == b.batch_insert(matrix)
    assert a.counter.counts == b.counter.counts
    assert [v.key() for v in a.basis_rows()] == [
        v.key() for v in b.basis_rows()
    ]


def test_batch_reduce_equals_sequential_reduce():
    ncols = 64
    rng = np.random.default_rng(17)
    c_seq, c_blk = OpCounter(), OpCounter()
    seq = BatchRref(ncols, counter=c_seq)
    blk = BatchRref(ncols, counter=c_blk)
    basis = [_random_vec(rng, ncols)[0] for _ in range(30)]
    for v in basis:
        seq.insert(v)
        blk.insert(v)
    c_seq.counts.clear()
    c_blk.counts.clear()
    probes = [_random_vec(rng, ncols)[0] for _ in range(25)]
    res_seq = [seq.reduce(v)[0].key() for v in probes]
    res_blk = [
        bytes(row.tobytes()) for row in blk.batch_reduce(probes)
    ]
    assert res_seq == res_blk
    assert c_seq.counts == c_blk.counts
    assert seq.rank == blk.rank  # reduce never mutates


# ----------------------------------------------------------------------
# make_rref heuristic + validation
# ----------------------------------------------------------------------
def test_make_rref_picks_kernel_by_code_length():
    assert isinstance(make_rref(BATCH_RREF_MIN_COLS - 1), IncrementalRref)
    assert isinstance(make_rref(BATCH_RREF_MIN_COLS), BatchRref)
    assert isinstance(make_rref(64, backend="numpy"), BatchRref)
    assert isinstance(make_rref(4096, backend="int"), IncrementalRref)
    with pytest.raises(DimensionError):
        make_rref(64, backend="gpu")


def test_make_rref_threads_payload_and_counter():
    counter = OpCounter()
    r = make_rref(2048, payload_nbytes=32, counter=counter, backend="numpy")
    assert r.counter is counter
    assert r.payload_nbytes == 32
    assert r.ncols == 2048


def test_batch_rref_validation():
    with pytest.raises(DimensionError):
        BatchRref(0)
    r = BatchRref(8, payload_nbytes=4)
    with pytest.raises(DimensionError):
        r.insert(BitVector.from_indices(9, [0]))
    with pytest.raises(DimensionError):
        r.insert(BitVector.from_indices(8, [0]), np.zeros(5, dtype=np.uint8))
    with pytest.raises(DimensionError):
        r.batch_insert(np.zeros((3, 7), dtype=np.uint64))
    with pytest.raises(DimensionError):
        r.batch_insert(
            [BitVector.from_indices(8, [0])], np.zeros((2, 4), dtype=np.uint8)
        )
    with pytest.raises(DecodingError):
        r.decode()
    sym = BatchRref(1)
    sym.insert(BitVector.from_indices(1, [0]))
    with pytest.raises(DecodingError):
        sym.decode()  # symbolic mode: no payloads
