"""GF(2) test oracles: the pre-int numpy kernel and offline rank helpers.

:class:`ReferenceBitVector` / :class:`ReferenceRref` keep the original
numpy-words implementation (``uint64`` word arrays, one numpy call per
elementary operation) exactly as it stood before the int-backed kernel
replaced it in ``repro.gf2.bitvec`` / ``repro.gf2.matrix``.  Three
consumers keep it alive:

* the differential property tests (``test_gf2_kernel_property.py``,
  ``test_gf2_batch.py``) drive random operation sequences through the
  int kernel, the numpy multi-row kernel and this one, and assert
  bit-identical results *and* identical
  :class:`~repro.costmodel.counters.OpCounter` totals, which is the
  executable proof that the rewrites are behavior-free;
* ``benchmarks/perf/test_kernel_perf.py`` times it on the vector stream
  the perfbench insert/reduce row times the int kernel on, and enforces
  the int kernel's speedup floor in the same process.

:class:`GF2Matrix` and :func:`rank_of` are the exact offline rank
oracle: they insert whole row sets into a production
:class:`~repro.gf2.matrix.IncrementalRref` and read off rank or the
reduced basis.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DecodingError, DimensionError
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import IncrementalRref

__all__ = ["GF2Matrix", "ReferenceBitVector", "ReferenceRref", "rank_of"]

_WORD_SHIFT = 6
_WORD_MASK = 63


def _nwords(nbits: int) -> int:
    return (nbits + _WORD_MASK) >> _WORD_SHIFT


def _tail_mask(nbits: int) -> np.uint64:
    rem = nbits & _WORD_MASK
    if rem == 0:
        return np.uint64(0xFFFFFFFFFFFFFFFF)
    return np.uint64((1 << rem) - 1)


class ReferenceBitVector:
    """The numpy-words bit vector, as shipped before the int kernel."""

    __slots__ = ("nbits", "words")

    def __init__(self, nbits: int, words: np.ndarray | None = None) -> None:
        if nbits < 0:
            raise DimensionError(f"negative vector length: {nbits}")
        self.nbits = nbits
        if words is None:
            self.words = np.zeros(_nwords(nbits), dtype=np.uint64)
        else:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            if words.shape != (_nwords(nbits),):
                raise DimensionError(
                    f"expected {_nwords(nbits)} words for {nbits} bits, "
                    f"got shape {words.shape}"
                )
            self.words = words
            if nbits:
                self.words[-1] &= _tail_mask(nbits)

    @classmethod
    def zeros(cls, nbits: int) -> "ReferenceBitVector":
        return cls(nbits)

    @classmethod
    def from_indices(
        cls, nbits: int, indices: Iterable[int]
    ) -> "ReferenceBitVector":
        vec = cls(nbits)
        for i in indices:
            vec.set(i)
        return vec

    @classmethod
    def random(
        cls, nbits: int, rng: np.random.Generator, density: float = 0.5
    ) -> "ReferenceBitVector":
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {density}")
        bits = rng.random(nbits) < density
        vec = cls(nbits)
        if nbits:
            packed = np.packbits(bits, bitorder="little")
            packed = np.pad(packed, (0, _nwords(nbits) * 8 - packed.size))
            vec.words = packed.view(np.uint64).copy()
            vec.words[-1] &= _tail_mask(nbits)
        return vec

    def _check_index(self, i: int) -> int:
        if i < 0:
            i += self.nbits
        if not 0 <= i < self.nbits:
            raise IndexError(f"bit index {i} out of range for length {self.nbits}")
        return i

    def get(self, i: int) -> bool:
        i = self._check_index(i)
        word = int(self.words[i >> _WORD_SHIFT])
        return bool((word >> (i & _WORD_MASK)) & 1)

    def set(self, i: int, value: bool = True) -> None:
        i = self._check_index(i)
        mask = np.uint64(1 << (i & _WORD_MASK))
        if value:
            self.words[i >> _WORD_SHIFT] |= mask
        else:
            self.words[i >> _WORD_SHIFT] &= ~mask

    def flip(self, i: int) -> None:
        i = self._check_index(i)
        self.words[i >> _WORD_SHIFT] ^= np.uint64(1 << (i & _WORD_MASK))

    def ixor(self, other: "ReferenceBitVector") -> "ReferenceBitVector":
        if self.nbits != other.nbits:
            raise DimensionError(
                f"length mismatch: {self.nbits} vs {other.nbits}"
            )
        np.bitwise_xor(self.words, other.words, out=self.words)
        return self

    def weight(self) -> int:
        return int(np.bitwise_count(self.words).sum())

    def is_zero(self) -> bool:
        return not self.words.any()

    def indices(self) -> np.ndarray:
        if self.nbits == 0:
            return np.empty(0, dtype=np.int64)
        bits = np.unpackbits(self.words.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits[: self.nbits]).astype(np.int64)

    def first_index(self) -> int:
        nz = np.flatnonzero(self.words)
        if nz.size == 0:
            return -1
        w = int(nz[0])
        word = int(self.words[w])
        return (w << _WORD_SHIFT) + ((word & -word).bit_length() - 1)

    def key(self) -> bytes:
        return self.words.tobytes()

    def nwords(self) -> int:
        return int(self.words.size)

    def copy(self) -> "ReferenceBitVector":
        return ReferenceBitVector(self.nbits, self.words.copy())

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ReferenceBitVector):
            return NotImplemented
        return self.nbits == other.nbits and bool(
            np.array_equal(self.words, other.words)
        )

    def __hash__(self) -> int:
        return hash((self.nbits, self.key()))


class ReferenceRref:
    """The original per-row-object incremental Gauss reduction.

    Algorithm and counter placement are copied verbatim from the
    pre-optimization ``IncrementalRref`` (including the quadratic
    ``first_index()`` recomputation in ``_next_pivot_overlap`` that the
    fast kernel removed), so both results and ``OpCounter`` totals are
    the contract the optimized kernel must reproduce exactly.
    """

    def __init__(
        self,
        ncols: int,
        payload_nbytes: int | None = None,
        counter: OpCounter | None = None,
    ) -> None:
        if ncols <= 0:
            raise DimensionError(f"ncols must be positive, got {ncols}")
        self.ncols = ncols
        self.payload_nbytes = payload_nbytes
        self.counter = counter if counter is not None else OpCounter()
        self._pivot_of_col: dict[int, int] = {}
        self._rows: list[ReferenceBitVector] = []
        self._payloads: list[np.ndarray | None] = []
        self._pivot_cols: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._rows)

    def is_full_rank(self) -> bool:
        return self.rank == self.ncols

    def basis_rows(self) -> list[ReferenceBitVector]:
        return [r.copy() for r in self._rows]

    def pivot_columns(self) -> list[int]:
        return list(self._pivot_cols)

    def _xor_row(
        self,
        vec: ReferenceBitVector,
        payload: np.ndarray | None,
        row_idx: int,
    ) -> np.ndarray | None:
        vec.ixor(self._rows[row_idx])
        self.counter.add("gauss_row_xor")
        self.counter.add("vec_word_xor", vec.nwords())
        self.counter.add("payload_xor")
        other = self._payloads[row_idx]
        if payload is not None and other is not None:
            payload = payload.copy() if payload.base is not None else payload
            np.bitwise_xor(payload, other, out=payload)
        return payload

    def reduce(
        self, vec: ReferenceBitVector, payload: np.ndarray | None = None
    ) -> tuple[ReferenceBitVector, np.ndarray | None]:
        if vec.nbits != self.ncols:
            raise DimensionError(
                f"vector of length {vec.nbits} vs ncols {self.ncols}"
            )
        residual = vec.copy()
        res_payload = payload.copy() if payload is not None else None
        while True:
            lead = residual.first_index()
            if lead < 0:
                break
            row_idx = self._pivot_of_col.get(lead)
            self.counter.add("table_op")
            if row_idx is None:
                break
            res_payload = self._xor_row(residual, res_payload, row_idx)
        return residual, res_payload

    def contains(self, vec: ReferenceBitVector) -> bool:
        residual, _ = self.reduce(vec)
        return residual.is_zero()

    def is_innovative(self, vec: ReferenceBitVector) -> bool:
        return not self.contains(vec)

    def insert(
        self, vec: ReferenceBitVector, payload: np.ndarray | None = None
    ) -> bool:
        if self.payload_nbytes is not None and payload is not None:
            payload = np.asarray(payload, dtype=np.uint8)
            if payload.shape != (self.payload_nbytes,):
                raise DimensionError(
                    f"payload shape {payload.shape} vs "
                    f"expected ({self.payload_nbytes},)"
                )
        residual, res_payload = self.reduce(vec, payload)
        lead = residual.first_index()
        if lead < 0:
            return False
        while True:
            nxt = self._next_pivot_overlap(residual)
            if nxt is None:
                break
            res_payload = self._xor_row(residual, res_payload, nxt)
        row_idx = len(self._rows)
        self._rows.append(residual)
        self._payloads.append(res_payload)
        self._pivot_cols.append(lead)
        self._pivot_of_col[lead] = row_idx
        self.counter.add("table_op")
        for i in range(row_idx):
            if self._rows[i].get(lead):
                self._payloads[i] = self._xor_row(
                    self._rows[i], self._payloads[i], row_idx
                )
        return True

    def _next_pivot_overlap(self, vec: ReferenceBitVector) -> int | None:
        for col in vec.indices():
            self.counter.add("table_op")
            row_idx = self._pivot_of_col.get(int(col))
            if row_idx is not None and int(col) != vec.first_index():
                return row_idx
        return None

    def decode(self) -> list[np.ndarray]:
        if not self.is_full_rank():
            raise DecodingError(
                f"rank {self.rank} < {self.ncols}: cannot decode yet"
            )
        if self.payload_nbytes is None:
            raise DecodingError("symbolic mode: no payloads to decode")
        out: list[np.ndarray | None] = [None] * self.ncols
        for row, col, payload in zip(
            self._rows, self._pivot_cols, self._payloads
        ):
            if row.weight() != 1:  # pragma: no cover - RREF invariant
                raise DecodingError("basis not fully reduced at full rank")
            out[col] = payload
        return [p if p is not None else np.zeros(self.payload_nbytes, np.uint8)
                for p in out]


class GF2Matrix:
    """An immutable-size list of GF(2) rows with batch reductions.

    This is the offline companion of :class:`IncrementalRref`: build it
    from a set of code vectors, then ask for rank or row-reduce it in
    one pass.  Rows are :class:`BitVector` instances of equal length.
    """

    def __init__(self, rows: Iterable[BitVector]) -> None:
        self.rows: list[BitVector] = [r.copy() for r in rows]
        if self.rows:
            ncols = self.rows[0].nbits
            for r in self.rows:
                if r.nbits != ncols:
                    raise DimensionError("ragged rows in GF2Matrix")
            self.ncols = ncols
        else:
            self.ncols = 0

    @classmethod
    def from_dense(cls, array: np.ndarray) -> "GF2Matrix":
        """Build from a 2-D 0/1 array (row per vector).

        Rows are packed with one :func:`numpy.packbits` call over the
        whole matrix rather than a Python loop per bit.
        """
        array = np.asarray(array)
        if array.ndim != 2:
            raise DimensionError("from_dense expects a 2-D array")
        nrows, ncols = array.shape
        if ncols == 0:
            return cls(BitVector(0) for _ in range(nrows))
        packed = np.packbits(
            (array % 2).astype(bool), axis=1, bitorder="little"
        )
        return cls(
            BitVector._from_int(
                ncols, int.from_bytes(packed[i].tobytes(), "little")
            )
            for i in range(nrows)
        )

    def to_dense(self) -> np.ndarray:
        """Return the matrix as a 2-D uint8 0/1 array."""
        out = np.zeros((len(self.rows), self.ncols), dtype=np.uint8)
        for i, row in enumerate(self.rows):
            out[i, row.indices()] = 1
        return out

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def rank(self) -> int:
        """Rank over GF(2) (does not modify the matrix)."""
        if not self.rows:
            return 0
        rref = IncrementalRref(self.ncols)
        for row in self.rows:
            rref.insert(row)
        return rref.rank

    def row_reduce(self) -> "GF2Matrix":
        """Return the reduced row-echelon form (pivot rows only)."""
        if not self.rows:
            return GF2Matrix([])
        rref = IncrementalRref(self.ncols)
        for row in self.rows:
            rref.insert(row)
        return GF2Matrix(rref.basis_rows())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GF2Matrix({self.nrows}x{self.ncols})"


def rank_of(vectors: Sequence[BitVector], ncols: int | None = None) -> int:
    """Convenience rank computation for a sequence of vectors."""
    vecs = list(vectors)
    if not vecs:
        return 0
    rref = IncrementalRref(ncols if ncols is not None else vecs[0].nbits)
    for v in vecs:
        rref.insert(v)
    return rref.rank
