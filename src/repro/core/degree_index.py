"""Index of available packets grouped by degree (paper Table I, row 1).

LTNC's recoding needs fast answers to "which packets of degree *i* do I
hold?" — both to build a fresh packet of a target degree (Algorithm 1
walks the index by decreasing degree) and to evaluate the reachability
heuristics of §III-B1 (the bound ``sum i * n(i)``).

Degree-1 items are the *decoded natives* (``S[1] = X`` in the paper's
notation); higher degrees hold the pids of packets stored in the Tanner
graph at their *current* (reduced) degree.  The index is maintained
incrementally from :class:`~repro.lt.tanner.TannerListener` events by
:class:`~repro.core.node.LtncNode`.
"""

from __future__ import annotations

from typing import Iterator

from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError

__all__ = ["DegreeIndex"]


class DegreeIndex:
    """Packets of each degree, for O(1) lookup and random picking.

    Items of degree 1 are native indices (decoded packets); items of
    degree >= 2 are Tanner-graph pids.  The two never mix because a
    stored packet's degree is always >= 2 (graph invariant).

    Buckets are plain sets, so membership and size cost O(1); a reader
    that needs an order takes ascending id (``sorted`` at the read), so
    no result depends on a set's iteration order.

    The index sits on the recoding hot path (every Algorithm-1 build
    walks it, every Tanner event updates it), so the class is slotted
    and the update methods touch each dict exactly once.
    """

    __slots__ = (
        "k",
        "counter",
        "version",
        "_buckets",
        "_degree_of",
        "_decoded",
    )

    def __init__(self, k: int, counter: OpCounter | None = None) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        self.k = k
        self.counter = counter if counter is not None else OpCounter()
        #: Monotone mutation counter: bumped by every add/update/remove,
        #: so derived caches (the reachability memo) can validate with
        #: one comparison.
        self.version = 0
        self._buckets: dict[int, set[int]] = {}
        self._degree_of: dict[int, int] = {}
        self._decoded: set[int] = set()

    # ------------------------------------------------------------------
    # Maintenance (driven by Tanner-graph events)
    # ------------------------------------------------------------------
    def add_packet(self, pid: int, degree: int) -> None:
        """Register a stored packet at its current degree (>= 2)."""
        if degree < 2:
            raise DimensionError(f"stored packets have degree >= 2, got {degree}")
        if pid in self._degree_of:
            raise DimensionError(f"pid {pid} already indexed")
        self._degree_of[pid] = degree
        self._buckets.setdefault(degree, set()).add(pid)
        self.version += 1
        self.counter.add("table_op")

    def update_packet(self, pid: int, degree: int) -> None:
        """Move a stored packet to its new (reduced) degree."""
        degree_of = self._degree_of
        old = degree_of[pid]
        if old == degree:
            return
        buckets = self._buckets
        bucket = buckets[old]
        bucket.discard(pid)
        if not bucket:
            del buckets[old]
        degree_of[pid] = degree
        buckets.setdefault(degree, set()).add(pid)
        self.version += 1
        self.counter.add("table_op", 2)

    def remove_packet(self, pid: int) -> None:
        """Drop a packet that left the Tanner graph."""
        degree = self._degree_of.pop(pid)
        bucket = self._buckets[degree]
        bucket.discard(pid)
        if not bucket:
            del self._buckets[degree]
        self.version += 1
        self.counter.add("table_op")

    def add_decoded(self, index: int) -> None:
        """Register native *index* as decoded (a degree-1 item)."""
        if not 0 <= index < self.k:
            raise DimensionError(f"native {index} outside 0..{self.k - 1}")
        self._decoded.add(index)
        self.version += 1
        self.counter.add("table_op")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def n(self, degree: int) -> int:
        """Number of available items of exactly *degree* (paper n(i))."""
        if degree == 1:
            return len(self._decoded)
        return len(self._buckets.get(degree, ()))

    def degree_of(self, pid: int) -> int:
        """Current indexed degree of a stored packet."""
        return self._degree_of[pid]

    def items_of_degree(self, degree: int) -> frozenset[int]:
        """Items (natives for degree 1, pids otherwise) of *degree*."""
        if degree == 1:
            return frozenset(self._decoded)
        return frozenset(self._buckets.get(degree, ()))

    def decoded_natives(self) -> frozenset[int]:
        """The degree-1 items: decoded native indices."""
        return frozenset(self._decoded)

    def max_degree(self) -> int:
        """Largest degree with at least one item (0 when empty)."""
        top = max(self._buckets) if self._buckets else 0
        if self._decoded:
            return max(top, 1)
        return top

    def degrees_present(self) -> Iterator[int]:
        """Degrees holding at least one item, in increasing order."""
        present = sorted(self._buckets)
        if self._decoded:
            yield 1
        yield from present

    def degree_mass(self, d: int) -> int:
        """``sum_{i=1..d} i * n(i)`` — the §III-B1 reachability mass.

        The maximum degree of any collision-free combination of packets
        of degree <= d is bounded by this sum.
        """
        mass = len(self._decoded) if d >= 1 else 0
        for degree, bucket in self._buckets.items():
            if 2 <= degree <= d:
                mass += degree * len(bucket)
        return mass

    def total_packets(self) -> int:
        """Stored packets plus decoded natives."""
        return len(self._degree_of) + len(self._decoded)

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if buckets and degree map disagree."""
        for pid, degree in self._degree_of.items():
            assert pid in self._buckets.get(degree, ()), (
                f"pid {pid} missing from bucket {degree}"
            )
        for degree, bucket in self._buckets.items():
            assert bucket, f"empty bucket {degree} kept alive"
            for pid in bucket:
                assert self._degree_of.get(pid) == degree, (
                    f"pid {pid} in bucket {degree} but maps to "
                    f"{self._degree_of.get(pid)}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = {d: self.n(d) for d in self.degrees_present()}
        return f"DegreeIndex(k={self.k}, n={sizes})"
