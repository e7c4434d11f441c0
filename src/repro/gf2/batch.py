"""Numpy multi-row GF(2) elimination for large code lengths.

The int-backed :class:`~repro.gf2.matrix.IncrementalRref` wins for the
paper's default code lengths (one Python big-int XOR per elementary row
operation beats numpy's per-call overhead up to roughly a thousand
columns), but its insertion path walks Python loops whose iteration
count grows with the rank: the back-substitution visits every basis row
per insert, and the forward reduction XORs rows one at a time.  At the
paper-scale profile (``k = 2048``) those loops dominate RLNC decoding.

:class:`BatchRref` stores the basis as one contiguous ``uint64``
word-matrix and turns both loops into single vectorised operations:

* **forward elimination** — the basis is kept in *reduced* echelon
  form, so a basis row never carries another row's pivot column.
  XOR-ing basis rows into an incoming vector therefore never changes
  the vector's bits at other pivot columns, which means the full set of
  rows to eliminate is known up front (the pivot columns where the
  vector has a one) and the elimination collapses to one
  ``np.bitwise_xor.reduce`` over a row block;
* **back-substitution** — the rows holding the new pivot column are
  found with one shifted-column probe and cleared with one
  fancy-indexed block XOR.

The partial-reduction semantics of ``IncrementalRref.reduce`` (stop at
the first non-pivot lead) are reproduced exactly: with ``y_full`` the
fully eliminated vector, the sequential walk provably stops at
``lsb(y_full)`` having XOR-ed exactly the hit rows with pivot below
that lead, so the walk's residual — and its per-step ``OpCounter``
charges — can be reconstructed without running it.  The differential
tests drive random operation sequences through this kernel, the int
kernel and the numpy-words oracle in ``tests/gf2_oracles.py`` and
assert identical results *and* identical counter totals.

Like the int kernel, this one keeps its last reduction and replays it
for an insert of the same value at the same rank (the receiver's
innovation check, then its insert), and :meth:`BatchRref.load_identity`
builds the content source's identity basis in one block write.

:func:`make_rref` picks the kernel per code length: the int kernel
below :data:`BATCH_RREF_MIN_COLS` columns, this one at or above (the
paper-scale profile's ``k = 2048`` lands here).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DecodingError, DimensionError
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import IncrementalRref, charge_row_xors

__all__ = ["BATCH_RREF_MIN_COLS", "BatchRref", "make_rref"]

#: Columns at which :func:`make_rref` switches from the int kernel to
#: :class:`BatchRref`.  Calibrated by the perfbench large-k microbench:
#: below this the per-call numpy overhead loses to Python big-int XORs,
#: above it the vectorised block operations win.
BATCH_RREF_MIN_COLS = 1024


def _vec_to_words(vec: BitVector, nwords: int) -> np.ndarray:
    """Little-endian ``uint64`` words of a :class:`BitVector`."""
    return np.frombuffer(
        vec._x.to_bytes(nwords * 8, "little"), dtype=np.uint64
    )


def _words_to_int(words: np.ndarray) -> int:
    return int.from_bytes(words.tobytes(), "little")


def _first_bit(words: np.ndarray) -> int:
    """Index of the lowest set bit, or -1 when all words are zero."""
    nz = np.flatnonzero(words)
    if nz.size == 0:
        return -1
    w = int(nz[0])
    word = int(words[w])
    return (w << 6) + ((word & -word).bit_length() - 1)


class BatchRref:
    """Word-matrix RREF basis with vectorised multi-row elimination.

    Drop-in replacement for :class:`~repro.gf2.matrix.IncrementalRref`
    (same constructor, queries, ``reduce``/``insert``/``decode`` and
    counter charges), plus :meth:`batch_insert` for processing
    word-matrix blocks without per-row conversions.
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
        self._nwords = (ncols + 63) >> 6
        self._basis = np.zeros((ncols, self._nwords), dtype=np.uint64)
        self._payload_rows = (
            np.zeros((ncols, payload_nbytes), dtype=np.uint8)
            if payload_nbytes is not None
            else None
        )
        self._rank = 0
        # Pivot bookkeeping: per-column row position (-1 = free) and the
        # pivot columns as a word mask for one-AND hit detection.
        self._row_of_col = np.full(ncols, -1, dtype=np.int64)
        self._pivot_mask = np.zeros(self._nwords, dtype=np.uint64)
        self._pivot_cols: list[int] = []
        # The last reduction: (value, rank, (residual, used rows,
        # lookups, row XORs)); see _reduce_vec.
        self._last: tuple[int, int, tuple] | None = None

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Current rank of the inserted rows."""
        return self._rank

    def is_full_rank(self) -> bool:
        """True iff the basis spans the whole space."""
        return self._rank == self.ncols

    def basis_rows(self) -> list[BitVector]:
        """Copies of the current pivot rows (reduced echelon form)."""
        return [
            BitVector._from_int(self.ncols, _words_to_int(self._basis[i]))
            for i in range(self._rank)
        ]

    def pivot_columns(self) -> list[int]:
        """Pivot column of each basis row, in insertion order."""
        return list(self._pivot_cols)

    # ------------------------------------------------------------------
    def _hit_columns(self, words: np.ndarray) -> np.ndarray:
        """Ascending pivot columns where *words* has a one."""
        masked = np.bitwise_and(words, self._pivot_mask)
        if not masked.any():
            return np.empty(0, dtype=np.int64)
        bits = np.unpackbits(masked.view(np.uint8), bitorder="little")
        return np.flatnonzero(bits)

    def _reduce_words(
        self, words: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int, int]:
        """Partial reduction of one word row; returns charges unapplied.

        Returns ``(residual_words, used_rows, n_lookups, n_xors)``
        replicating the sequential lead walk: rows are eliminated for
        every pivot hit below the first non-pivot lead of the *fully*
        eliminated vector (see module docstring).
        """
        hit_cols = self._hit_columns(words)
        if hit_cols.size == 0:
            # No pivot hit: the walk looks at the lead once (if any).
            return words.copy(), hit_cols, (1 if words.any() else 0), 0
        rows = self._row_of_col[hit_cols]
        block = self._basis[rows]
        full = np.bitwise_xor.reduce(block, axis=0)
        np.bitwise_xor(full, words, out=full)
        lead = _first_bit(full)
        if lead < 0:
            residual = full  # zero: every hit row was XOR-ed
            used = rows
        else:
            below = int(np.searchsorted(hit_cols, lead))
            used = rows[:below]
            if below == hit_cols.size:
                residual = full
            else:
                residual = np.bitwise_xor.reduce(
                    self._basis[rows[below:]], axis=0
                )
                np.bitwise_xor(residual, full, out=residual)
        n_xors = int(used.size)
        return residual, used, n_xors + (1 if lead >= 0 else 0), n_xors

    def _charged(self, outcome: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Apply a :meth:`_reduce_words` outcome's charges; return
        ``(residual_words, used_rows)``."""
        residual, used, n_lookups, n_xors = outcome
        self.counter.add("table_op", n_lookups)
        charge_row_xors(self.counter, n_xors, self.ncols)
        return residual, used

    def _reduce_vec(self, vec: BitVector) -> tuple[np.ndarray, np.ndarray]:
        """``(residual_words, used_rows)`` of *vec*, charged.

        Reuses the last outcome when the value and the rank match (the
        basis changes only when the rank grows), replaying its charges.
        """
        if vec.nbits != self.ncols:
            raise DimensionError(
                f"vector of length {vec.nbits} vs ncols {self.ncols}"
            )
        x = vec._x
        last = self._last
        if last is not None and last[0] == x and last[1] == self._rank:
            outcome = last[2]
        else:
            outcome = self._reduce_words(_vec_to_words(vec, self._nwords))
            self._last = (x, self._rank, outcome)
        return self._charged(outcome)

    def _reduced_payload(
        self, payload: np.ndarray | None, used: np.ndarray
    ) -> np.ndarray | None:
        """A copy of *payload* XOR-ed with the *used* rows' payloads;
        ``None`` in symbolic mode."""
        if payload is None or self._payload_rows is None:
            return None
        if not used.size:
            return payload.copy()
        return np.bitwise_xor(
            payload, np.bitwise_xor.reduce(self._payload_rows[used], axis=0)
        )

    def reduce(
        self, vec: BitVector, payload: np.ndarray | None = None
    ) -> tuple[BitVector, np.ndarray | None]:
        """Reduce (vec, payload) against the basis; inputs untouched.

        Same partial-reduction contract (and charges) as
        :meth:`IncrementalRref.reduce`: the walk stops at the first
        non-pivot lead, and symbolic mode returns no payload.
        """
        residual, used = self._reduce_vec(vec)
        return (
            BitVector._from_int(self.ncols, _words_to_int(residual)),
            self._reduced_payload(payload, used),
        )

    def contains(self, vec: BitVector) -> bool:
        """True iff *vec* is in the span of the inserted rows."""
        residual, _ = self.reduce(vec)
        return residual.is_zero()

    def is_innovative(self, vec: BitVector) -> bool:
        """True iff inserting *vec* would increase the rank."""
        return not self.contains(vec)

    # ------------------------------------------------------------------
    def load_identity(self, payloads: np.ndarray | None = None) -> None:
        """Make an empty basis the identity, row *i* carrying ``payloads[i]``.

        The basis, payloads and charges (three ``table_op`` per row) are
        those of inserting the ``ncols`` unit vectors in order, without
        reducing each one: the content source's starting state.
        """
        if self._rank:
            raise DimensionError(
                f"load_identity needs an empty basis, got rank {self._rank}"
            )
        n = self.ncols
        if self._payload_rows is not None and payloads is not None:
            payloads = np.asarray(payloads, dtype=np.uint8)
            if payloads.shape != self._payload_rows.shape:
                raise DimensionError(
                    f"payloads shape {payloads.shape} vs expected "
                    f"{self._payload_rows.shape}"
                )
            self._payload_rows[:] = payloads
        cols = np.arange(n)
        self._basis[cols, cols >> 6] = np.left_shift(
            np.uint64(1), (cols & 63).astype(np.uint64)
        )
        self._row_of_col[:] = cols
        self._pivot_mask[:] = _vec_to_words(
            BitVector._from_int(n, (1 << n) - 1), self._nwords
        )
        self._pivot_cols = list(range(n))
        self._rank = n
        self.counter.add("table_op", 3 * n)

    def insert(
        self, vec: BitVector, payload: np.ndarray | None = None
    ) -> bool:
        """Insert a row; returns True iff it was innovative.

        Symbolic mode drops *payload*.
        """
        if self.payload_nbytes is not None and payload is not None:
            payload = np.asarray(payload, dtype=np.uint8)
            if payload.shape != (self.payload_nbytes,):
                raise DimensionError(
                    f"payload shape {payload.shape} vs "
                    f"expected ({self.payload_nbytes},)"
                )
        residual, used = self._reduce_vec(vec)
        return self._register(residual, used, payload)

    def _register(
        self,
        residual: np.ndarray,
        used: np.ndarray,
        payload: np.ndarray | None,
    ) -> bool:
        """Add a reduced row to the basis if it is non-zero."""
        lead = _first_bit(residual)
        if lead < 0:
            return False
        counter = self.counter
        res_payload = self._reduced_payload(payload, used)
        # Canonicalize: clear the remaining pivot overlaps (all above
        # the lead — basis rows carry no other pivot columns, so the
        # overlap set is fixed and processed in ascending order, exactly
        # the sequential _next_pivot_overlap walk).  The walk's
        # ``table_op`` charge inspects every set bit up to and including
        # each overlap hit (and the whole support on the final miss), on
        # the *evolving* vector — replayed here state by state.
        overlaps = self._hit_columns(residual)
        state = residual if overlaps.size == 0 else residual.copy()
        canon_ops = 0
        for col in overlaps.tolist():
            wi = col >> 6
            lowbits = int(state[wi]) & ((1 << ((col & 63) + 1)) - 1)
            canon_ops += int(
                np.bitwise_count(state[:wi]).sum()
            ) + lowbits.bit_count()
            row = self._row_of_col[col]
            np.bitwise_xor(state, self._basis[row], out=state)
            if res_payload is not None:
                np.bitwise_xor(
                    res_payload, self._payload_rows[row], out=res_payload
                )
        canon_ops += int(np.bitwise_count(state).sum())
        counter.add("table_op", canon_ops)
        charge_row_xors(counter, int(overlaps.size), self.ncols)
        # Register the canonical row.
        row_idx = self._rank
        self._basis[row_idx] = state
        if res_payload is not None:
            self._payload_rows[row_idx] = res_payload
        self._rank = row_idx + 1
        self._pivot_cols.append(lead)
        self._row_of_col[lead] = row_idx
        self._pivot_mask[lead >> 6] |= np.uint64(1 << (lead & 63))
        counter.add("table_op")
        # Back-substitute: one block XOR over the rows holding the new
        # pivot column — the multi-row elimination this kernel exists
        # for.
        active = self._basis[:row_idx]
        col_bits = (active[:, lead >> 6] >> np.uint64(lead & 63)) & np.uint64(1)
        subs = np.flatnonzero(col_bits)
        if subs.size:
            active[subs] ^= state
            if res_payload is not None:
                self._payload_rows[subs] ^= res_payload
            charge_row_xors(counter, int(subs.size), self.ncols)
        return True

    # ------------------------------------------------------------------
    # Block API
    # ------------------------------------------------------------------
    def _as_word_matrix(
        self, vectors: Sequence[BitVector] | np.ndarray
    ) -> np.ndarray:
        if isinstance(vectors, np.ndarray):
            matrix = np.ascontiguousarray(vectors, dtype=np.uint64)
            if matrix.ndim != 2 or matrix.shape[1] != self._nwords:
                raise DimensionError(
                    f"word matrix shape {matrix.shape} vs expected "
                    f"(n, {self._nwords})"
                )
            return matrix
        rows = [_vec_to_words(v, self._nwords) for v in vectors]
        if not rows:
            return np.empty((0, self._nwords), dtype=np.uint64)
        return np.stack(rows)

    def batch_insert(
        self,
        vectors: Sequence[BitVector] | np.ndarray,
        payloads: np.ndarray | None = None,
    ) -> list[bool]:
        """Insert a block of rows; returns per-row innovation flags.

        Accepts :class:`BitVector` rows or a ``(n, nwords)`` ``uint64``
        word matrix.  Equivalent to sequential :meth:`insert` calls
        (results and charges identical) with the per-row conversion
        hoisted out of the loop.
        """
        matrix = self._as_word_matrix(vectors)
        if payloads is not None and len(payloads) != len(matrix):
            raise DimensionError(
                f"{len(payloads)} payloads for {len(matrix)} rows"
            )
        out: list[bool] = []
        for i in range(len(matrix)):
            payload = None
            if payloads is not None:
                payload = np.asarray(payloads[i], dtype=np.uint8)
            residual, used = self._charged(self._reduce_words(matrix[i]))
            out.append(self._register(residual, used, payload))
        return out

    # ------------------------------------------------------------------
    def decode(self) -> list[np.ndarray]:
        """Native payloads in index order; requires full rank + payloads."""
        if not self.is_full_rank():
            raise DecodingError(
                f"rank {self._rank} < {self.ncols}: cannot decode yet"
            )
        if self.payload_nbytes is None:
            raise DecodingError("symbolic mode: no payloads to decode")
        out: list[np.ndarray | None] = [None] * self.ncols
        weights = np.bitwise_count(self._basis[: self._rank]).sum(axis=1)
        if int(weights.max(initial=1)) != 1:  # pragma: no cover - invariant
            raise DecodingError("basis not fully reduced at full rank")
        for i, col in enumerate(self._pivot_cols):
            out[col] = self._payload_rows[i].copy()
        return [
            p if p is not None else np.zeros(self.payload_nbytes, np.uint8)
            for p in out
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchRref(ncols={self.ncols}, rank={self._rank})"


def make_rref(
    ncols: int,
    payload_nbytes: int | None = None,
    counter: OpCounter | None = None,
    backend: str = "auto",
) -> "IncrementalRref | BatchRref":
    """Pick the RREF kernel for a code length.

    ``backend`` is ``"auto"`` (int kernel below
    :data:`BATCH_RREF_MIN_COLS` columns, :class:`BatchRref` at or
    above — the paper-scale ``k = 2048`` profile lands on numpy),
    ``"int"`` or ``"numpy"``.  Both kernels are result- and
    charge-identical, so the choice is invisible to everything but the
    wall clock.
    """
    if backend not in ("auto", "int", "numpy"):
        raise DimensionError(
            f"backend must be 'auto', 'int' or 'numpy', got {backend!r}"
        )
    if backend == "numpy" or (
        backend == "auto" and ncols >= BATCH_RREF_MIN_COLS
    ):
        return BatchRref(ncols, payload_nbytes=payload_nbytes, counter=counter)
    return IncrementalRref(ncols, payload_nbytes=payload_nbytes, counter=counter)
