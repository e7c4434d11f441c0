"""Incremental Gaussian reduction over GF(2).

The RLNC baseline (§IV-A) decodes with Gaussian reduction on the code
matrix and detects non-innovative packets through a partial reduction
at insertion time.  Tests and the text-statistics experiment use the
same reduction as the exact rank oracle for innovation, against which
LTNC's heuristic redundancy detection (§III-C1) is compared.

:class:`IncrementalRref` maintains a reduced row-echelon basis under
row insertions, optionally carrying payload rows so that decoding falls
out of the reduction (once the rank reaches *k* the basis rows are unit
vectors and payload rows are the native packets).  Every row operation
is recorded in an :class:`~repro.costmodel.counters.OpCounter` so the
Figure 8 cost benches can weigh it.

Hot-loop design: alongside the column->row dict the basis keeps a
*pivot-column bitmask* (one int), so the forward reduction finds the
next pivot overlap with a single ``&`` instead of re-scanning the
residual's indices, and the back-substitution test is one bit probe
per basis row.  Counter totals are provably identical to the numpy
kernel this one replaced, kept as a test oracle in
``tests/gf2_oracles.py``: its loop charges one ``table_op`` per column
it walks, and the closed-form
``popcount(residual & mask)`` expressions below charge the same walk
without taking it — the differential property tests pin this down.

A receiver checks a packet's innovation and then inserts it, reducing
the same vector against the same basis twice.  The kernel keeps its
last reduction (value, rank, residual, charges) and replays it when
the value and the rank match: the basis changes only when the rank
grows, so the replay is the same computation, charged the same.
"""

from __future__ import annotations

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DecodingError, DimensionError
from repro.gf2.bitvec import BitVector

__all__ = ["IncrementalRref"]


def charge_row_xors(counter: OpCounter, n: int, ncols: int) -> None:
    """Charge *n* elementary row XORs of width *ncols*: the row step,
    its packed-word XORs and the payload XOR that travels with it."""
    if n:
        counter.add("gauss_row_xor", n)
        counter.add("vec_word_xor", n * ((ncols + 63) >> 6))
        counter.add("payload_xor", n)


class IncrementalRref:
    """Reduced row-echelon basis maintained under row insertions.

    Rows are reduced against existing pivots on insertion; if a nonzero
    residual remains, it becomes a new pivot row and existing rows are
    back-substituted so the basis stays in *reduced* echelon form.  This
    mirrors what a practical RLNC implementation does: the incremental
    work spread over receptions *is* the decoding Gauss reduction.

    Parameters
    ----------
    ncols:
        Width of the vectors (the code length *k*).
    payload_nbytes:
        If not ``None``, each inserted row carries an ``m``-byte payload
        and payload rows are XOR-ed alongside vector rows, so decoding
        produces the native packets.  ``None`` runs in symbolic mode
        (vectors only: payloads passed in are dropped, and payload XORs
        are still *counted*).
    counter:
        Destination for cost accounting; a private counter is created
        when omitted.
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
        # pivot column -> position in self._rows
        self._pivot_of_col: dict[int, int] = {}
        # bitmask with bit c set iff column c is a pivot column
        self._pivot_mask: int = 0
        self._rows: list[BitVector] = []
        self._payloads: list[np.ndarray | None] = []
        self._pivot_cols: list[int] = []
        # The last reduction: (value, rank, residual, lookups, row XORs).
        self._last: tuple[int, int, int, int, int] | None = None

    # ------------------------------------------------------------------
    @property
    def rank(self) -> int:
        """Current rank of the inserted rows."""
        return len(self._rows)

    def is_full_rank(self) -> bool:
        """True iff the basis spans the whole space."""
        return self.rank == self.ncols

    def basis_rows(self) -> list[BitVector]:
        """Copies of the current pivot rows (reduced echelon form)."""
        return [r.copy() for r in self._rows]

    def pivot_columns(self) -> list[int]:
        """Pivot column of each basis row, in insertion order."""
        return list(self._pivot_cols)

    # ------------------------------------------------------------------
    def load_identity(self, payloads: np.ndarray | None = None) -> None:
        """Make an empty basis the identity, row *i* carrying ``payloads[i]``.

        The basis, payloads and charges (three ``table_op`` per row) are
        those of inserting the ``ncols`` unit vectors in order, without
        reducing each one: the content source's starting state.
        """
        if self._rows:
            raise DimensionError(
                f"load_identity needs an empty basis, got rank {self.rank}"
            )
        n = self.ncols
        rows = None
        if self.payload_nbytes is not None and payloads is not None:
            rows = np.array(payloads, dtype=np.uint8)
            if rows.shape != (n, self.payload_nbytes):
                raise DimensionError(
                    f"payloads shape {rows.shape} vs expected "
                    f"({n}, {self.payload_nbytes})"
                )
        self._rows = [BitVector._from_int(n, 1 << i) for i in range(n)]
        self._payloads = list(rows) if rows is not None else [None] * n
        self._pivot_cols = list(range(n))
        self._pivot_of_col = {i: i for i in range(n)}
        self._pivot_mask = (1 << n) - 1
        self.counter.add("table_op", 3 * n)

    def _xor_row(
        self,
        vec: BitVector,
        payload: np.ndarray | None,
        row_idx: int,
    ) -> np.ndarray | None:
        """XOR basis row *row_idx* into (vec, payload), with accounting."""
        vec._x ^= self._rows[row_idx]._x
        charge_row_xors(self.counter, 1, self.ncols)
        other = self._payloads[row_idx]
        if payload is not None and other is not None:
            payload = payload.copy() if payload.base is not None else payload
            np.bitwise_xor(payload, other, out=payload)
        return payload

    def reduce(
        self, vec: BitVector, payload: np.ndarray | None = None
    ) -> tuple[BitVector, np.ndarray | None]:
        """Reduce (vec, payload) against the basis; inputs untouched.

        Returns the residual vector (zero iff *vec* is in the span) and
        the correspondingly reduced payload (``None`` in symbolic mode).
        Reducing the last value again at the same rank (the receiver's
        innovation check, then its insert) replays the last walk and its
        charges: the basis changes only when the rank grows.
        """
        if vec.nbits != self.ncols:
            raise DimensionError(
                f"vector of length {vec.nbits} vs ncols {self.ncols}"
            )
        x = vec._x
        rank = len(self._rows)
        last = self._last
        if last is None or last[0] != x or last[1] != rank:
            pivot_mask = self._pivot_mask
            pivot_of_col = self._pivot_of_col
            rows = self._rows
            residual = x
            n_lookups = 0
            n_xors = 0
            # Basis rows are canonical (no other pivot column set), so
            # each XOR clears exactly the current lead among pivot
            # columns and only ever touches bits above it: the loop
            # walks leads upward.
            while residual:
                lsb = residual & -residual
                n_lookups += 1
                if not (pivot_mask & lsb):
                    break
                residual ^= rows[pivot_of_col[lsb.bit_length() - 1]]._x
                n_xors += 1
            last = self._last = (x, rank, residual, n_lookups, n_xors)
        _, _, residual, n_lookups, n_xors = last
        self.counter.add("table_op", n_lookups)
        charge_row_xors(self.counter, n_xors, self.ncols)
        res_payload = None
        if payload is not None and self.payload_nbytes is not None:
            res_payload = payload.copy()
            # The rows the walk XOR-ed are the pivots where x and the
            # residual differ: no row carries another's pivot column.
            used = (x ^ residual) & self._pivot_mask
            while used:
                lsb = used & -used
                other = self._payloads[self._pivot_of_col[lsb.bit_length() - 1]]
                if other is not None:
                    np.bitwise_xor(res_payload, other, out=res_payload)
                used ^= lsb
        return BitVector._from_int(self.ncols, residual), res_payload

    def contains(self, vec: BitVector) -> bool:
        """True iff *vec* is in the span of the inserted rows."""
        residual, _ = self.reduce(vec)
        return residual.is_zero()

    def is_innovative(self, vec: BitVector) -> bool:
        """True iff inserting *vec* would increase the rank."""
        return not self.contains(vec)

    def insert(
        self, vec: BitVector, payload: np.ndarray | None = None
    ) -> bool:
        """Insert a row; returns True iff it was innovative.

        Keeps the basis in *reduced* echelon form: after the forward
        reduction of the new row, every existing row containing the new
        pivot column is back-substituted.  Symbolic mode drops
        *payload*.
        """
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
        # Fully reduce below the leading bit so the new row is canonical.
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
        self._pivot_mask |= 1 << lead
        counter = self.counter
        counter.add("table_op")
        # Back-substitute: clear the new pivot column from older rows.
        lead_bit = 1 << lead
        new_x = residual._x
        rows = self._rows
        payloads = self._payloads
        n_subs = 0
        for i in range(row_idx):
            row = rows[i]
            if row._x & lead_bit:
                row._x ^= new_x
                n_subs += 1
                p = payloads[i]
                if p is not None and res_payload is not None:
                    np.bitwise_xor(p, res_payload, out=p)
        charge_row_xors(counter, n_subs, self.ncols)
        return True

    def _next_pivot_overlap(self, vec: BitVector) -> int | None:
        """Index of a basis row whose pivot column is set in *vec*.

        Only columns *after* the leading one can still be set, since
        :meth:`reduce` cleared every pivot at or before the lead.  The
        overlap is found with one ``&`` against the pivot mask; the
        ``table_op`` charge replays the per-column walk the reference
        kernel performs (every set bit up to and including the hit, or
        the whole support on a miss).
        """
        x = vec._x
        overlap = x & self._pivot_mask & ~(x & -x)
        if not overlap:
            self.counter.add("table_op", x.bit_count())
            return None
        low = overlap & -overlap
        self.counter.add("table_op", (x & ((low << 1) - 1)).bit_count())
        return self._pivot_of_col[low.bit_length() - 1]

    # ------------------------------------------------------------------
    def decode(self) -> list[np.ndarray]:
        """Native payloads in index order; requires full rank + payloads.

        In reduced echelon form at full rank every basis row is a unit
        vector, so the payload rows *are* the native packets.
        """
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"IncrementalRref(ncols={self.ncols}, rank={self.rank})"
