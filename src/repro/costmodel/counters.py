"""Operation counters for algorithmic cost accounting.

The paper's Figure 8 reports CPU cycles for the *control* plane
(operations on code vectors, Tanner graphs, code matrices) and the
*data* plane (XORs of whole payloads) of recoding and decoding,
measured on the authors' C++ implementation.  We reproduce those
measurements by counting elementary operations in the hot loops and
converting them to cycles with a calibrated
:class:`~repro.costmodel.cycles.CycleModel`.

Counting instead of timing keeps the benchmark deterministic and
insulates the figure's *shape* (Gauss reduction vs belief propagation)
from Python interpreter overhead, which would otherwise dominate and
distort the comparison.

Canonical operation names
-------------------------

Control plane (counted in abstract units):

``vec_word_xor``    one 64-bit word XOR on a packed code vector
``gauss_row_xor``   one row reduction step of Gaussian elimination
                    (its word XORs are counted separately)
``bp_edge``         one Tanner-graph edge removal during peeling
``table_op``        one index/hash/queue operation on a complementary
                    data structure (degree index, cc array, ...)
``cc_lookup``       one leader lookup in the connected-components array
``rng_draw``        one random draw (degree pick, packet pick)

Data plane:

``payload_xor``     one XOR of two whole m-byte payloads
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = ["OpCounter", "CONTROL_OPS", "DATA_OPS"]

CONTROL_OPS: tuple[str, ...] = (
    "vec_word_xor",
    "gauss_row_xor",
    "bp_edge",
    "table_op",
    "cc_lookup",
    "rng_draw",
)

DATA_OPS: tuple[str, ...] = ("payload_xor",)


class OpCounter:
    """A named multiset of elementary operations.

    The counter is deliberately permissive about names so modules can
    record auxiliary statistics (e.g. ``ltnc_degree_retry``) next to the
    canonical cost ops; the cycle model only weighs names it knows.
    """

    __slots__ = ("counts",)

    def __init__(self, counts: Mapping[str, int] | None = None) -> None:
        self.counts: dict[str, int] = dict(counts) if counts else {}

    def add(self, op: str, n: int = 1) -> None:
        """Record *n* occurrences of operation *op*."""
        if n:
            self.counts[op] = self.counts.get(op, 0) + n

    def get(self, op: str) -> int:
        """Number of recorded occurrences of *op* (0 if never seen)."""
        return self.counts.get(op, 0)

    def merge(self, other: "OpCounter") -> None:
        """Fold *other*'s counts into this counter."""
        for op, n in other.counts.items():
            self.counts[op] = self.counts.get(op, 0) + n

    def snapshot(self) -> dict[str, int]:
        """An independent copy of the current counts."""
        return dict(self.counts)

    def diff(self, before: Mapping[str, int]) -> dict[str, int]:
        """Counts accumulated since *before* (a prior :meth:`snapshot`)."""
        return {
            op: n - before.get(op, 0)
            for op, n in self.counts.items()
            if n != before.get(op, 0)
        }

    def reset(self) -> None:
        """Clear all counts."""
        self.counts.clear()

    def total(self, ops: Iterable[str] | None = None) -> int:
        """Sum of counts, optionally restricted to *ops*."""
        if ops is None:
            return sum(self.counts.values())
        return sum(self.counts.get(op, 0) for op in ops)

    def __bool__(self) -> bool:
        return any(self.counts.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items()))
        return f"OpCounter({inner})"
