"""Unit and property tests for repro.gf2.matrix (Gauss / RREF) and the
offline rank oracle built on it (``gf2_oracles``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel import OpCounter
from repro.errors import DecodingError, DimensionError
from repro.gf2 import BitVector, IncrementalRref

from gf2_oracles import GF2Matrix, rank_of


def bv(n, idx):
    return BitVector.from_indices(n, idx)


class TestGF2Matrix:
    def test_rank_identity(self):
        rows = [bv(4, [i]) for i in range(4)]
        assert GF2Matrix(rows).rank() == 4

    def test_rank_dependent_rows(self):
        rows = [bv(4, [0, 1]), bv(4, [1, 2]), bv(4, [0, 2])]
        assert GF2Matrix(rows).rank() == 2

    def test_rank_zero_rows(self):
        assert GF2Matrix([bv(5, []), bv(5, [])]).rank() == 0

    def test_empty_matrix(self):
        m = GF2Matrix([])
        assert m.rank() == 0 and m.nrows == 0

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionError):
            GF2Matrix([bv(3, [0]), bv(4, [0])])

    def test_from_to_dense_round_trip(self):
        arr = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.uint8)
        m = GF2Matrix.from_dense(arr)
        assert np.array_equal(m.to_dense(), arr)

    def test_from_dense_requires_2d(self):
        with pytest.raises(DimensionError):
            GF2Matrix.from_dense(np.zeros(3))

    def test_row_reduce_yields_basis(self):
        rows = [bv(4, [0, 1]), bv(4, [1, 2]), bv(4, [0, 2]), bv(4, [3])]
        reduced = GF2Matrix(rows).row_reduce()
        assert reduced.nrows == 3
        assert reduced.rank() == 3

    def test_matrix_rank_does_not_mutate(self):
        rows = [bv(3, [0, 1]), bv(3, [1, 2])]
        m = GF2Matrix(rows)
        dense_before = m.to_dense()
        m.rank()
        assert np.array_equal(m.to_dense(), dense_before)


class TestIncrementalRref:
    def test_insert_innovative_and_duplicate(self):
        r = IncrementalRref(4)
        assert r.insert(bv(4, [0, 1]))
        assert not r.insert(bv(4, [0, 1]))
        assert r.rank == 1

    def test_span_detection(self):
        r = IncrementalRref(4)
        r.insert(bv(4, [0, 1]))
        r.insert(bv(4, [1, 2]))
        assert r.contains(bv(4, [0, 2]))
        assert not r.contains(bv(4, [0, 3]))
        assert r.is_innovative(bv(4, [3]))

    def test_zero_vector_never_innovative(self):
        r = IncrementalRref(4)
        assert not r.insert(bv(4, []))

    def test_ncols_validation(self):
        with pytest.raises(DimensionError):
            IncrementalRref(0)
        r = IncrementalRref(4)
        with pytest.raises(DimensionError):
            r.insert(bv(5, [0]))

    def test_full_rank_and_basis_is_identity(self):
        r = IncrementalRref(3)
        r.insert(bv(3, [0, 1]))
        r.insert(bv(3, [1, 2]))
        r.insert(bv(3, [2]))
        assert r.is_full_rank()
        # RREF at full rank = unit vectors
        assert sorted(row.first_index() for row in r.basis_rows()) == [0, 1, 2]
        assert all(row.weight() == 1 for row in r.basis_rows())

    def test_decode_recovers_natives(self):
        k, m = 5, 7
        rng = np.random.default_rng(3)
        content = rng.integers(0, 256, size=(k, m), dtype=np.uint8)
        r = IncrementalRref(k, payload_nbytes=m)
        while not r.is_full_rank():
            idx = rng.choice(k, size=rng.integers(1, k + 1), replace=False)
            payload = content[idx[0]].copy()
            for i in idx[1:]:
                payload ^= content[i]
            r.insert(bv(k, (int(i) for i in idx)), payload)
        decoded = r.decode()
        for i in range(k):
            assert np.array_equal(decoded[i], content[i])

    def test_decode_before_full_rank_raises(self):
        r = IncrementalRref(3, payload_nbytes=2)
        r.insert(bv(3, [0]), np.zeros(2, np.uint8))
        with pytest.raises(DecodingError):
            r.decode()

    def test_decode_symbolic_mode_raises(self):
        r = IncrementalRref(2)
        r.insert(bv(2, [0]))
        r.insert(bv(2, [1]))
        with pytest.raises(DecodingError):
            r.decode()

    def test_payload_shape_validated(self):
        r = IncrementalRref(3, payload_nbytes=4)
        with pytest.raises(DimensionError):
            r.insert(bv(3, [0]), np.zeros(5, np.uint8))

    def test_reduce_does_not_mutate_input(self):
        r = IncrementalRref(4)
        r.insert(bv(4, [0, 1]))
        v = bv(4, [0, 1, 2])
        r.reduce(v)
        assert sorted(v.indices()) == [0, 1, 2]

    def test_operation_counting(self):
        counter = OpCounter()
        r = IncrementalRref(8, counter=counter)
        r.insert(bv(8, [0, 1]))
        r.insert(bv(8, [1, 2]))
        r.insert(bv(8, [0, 2]))  # dependent: pure reduction work
        assert counter.get("gauss_row_xor") > 0
        assert counter.get("vec_word_xor") > 0

    def test_rank_of_helper(self):
        assert rank_of([]) == 0
        assert rank_of([bv(3, [0]), bv(3, [0])]) == 1
        assert rank_of([bv(3, [0]), bv(3, [1]), bv(3, [0, 1])]) == 2


# ----------------------------------------------------------------------
# Property-based: RREF against brute-force rank
# ----------------------------------------------------------------------


def brute_rank(rows: list[BitVector], ncols: int) -> int:
    """Rank via numpy row reduction over GF(2)."""
    if not rows:
        return 0
    mat = np.zeros((len(rows), ncols), dtype=np.uint8)
    for i, row in enumerate(rows):
        mat[i, row.indices()] = 1
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if mat[r, col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[[rank, pivot]] = mat[[pivot, rank]]
        for r in range(len(rows)):
            if r != rank and mat[r, col]:
                mat[r] ^= mat[rank]
        rank += 1
    return rank


@st.composite
def row_sets(draw):
    ncols = draw(st.integers(1, 24))
    nrows = draw(st.integers(0, 30))
    rows = []
    for _ in range(nrows):
        idx = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols))
        rows.append(BitVector.from_indices(ncols, idx))
    return ncols, rows


@settings(max_examples=60)
@given(row_sets())
def test_incremental_rank_matches_brute_force(case):
    ncols, rows = case
    r = IncrementalRref(ncols)
    for row in rows:
        r.insert(row)
    assert r.rank == brute_rank(rows, ncols)


@settings(max_examples=60)
@given(row_sets())
def test_span_membership_consistent(case):
    ncols, rows = case
    r = IncrementalRref(ncols)
    for row in rows:
        r.insert(row)
    # Every inserted row is in the span; XOR of any two as well.
    for row in rows:
        assert r.contains(row)
    if len(rows) >= 2:
        assert r.contains(rows[0].__xor__(rows[1]))


@settings(max_examples=40)
@given(row_sets())
def test_rref_rows_have_unique_pivots(case):
    ncols, rows = case
    r = IncrementalRref(ncols)
    for row in rows:
        r.insert(row)
    pivots = [row.first_index() for row in r.basis_rows()]
    assert len(pivots) == len(set(pivots))
    # Reduced form: no basis row contains another row's pivot.
    for i, row in enumerate(r.basis_rows()):
        for j, p in enumerate(pivots):
            if i != j:
                assert not row.get(p)
