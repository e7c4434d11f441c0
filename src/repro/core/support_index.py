"""Canonical lookup of low-degree stored packets.

Algorithm 3 (§III-C1) needs an ``isAvailable(x + x' + x'')`` primitive:
does the node hold a packet with *exactly* this support?  The paper
assumes a structure with O(log k) lookups (e.g. a binary search tree);
a hash map keyed by the sorted support tuple gives the same service.

Only packets of current degree 2 or 3 are indexed — higher degrees are
never asked about (the redundancy mechanism deliberately stops at
degree 3) and degree-1 availability is the decoded set.
"""

from __future__ import annotations

from typing import Iterable

from repro.costmodel.counters import OpCounter

__all__ = ["SupportIndex", "INDEXED_MAX_DEGREE"]

INDEXED_MAX_DEGREE = 3


def _key(support: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(support))


class SupportIndex:
    """Maps canonical supports of degree <= 3 to stored packet pids."""

    def __init__(self, counter: OpCounter | None = None) -> None:
        self.counter = counter if counter is not None else OpCounter()
        self._pids_of: dict[tuple[int, ...], set[int]] = {}
        self._key_of: dict[int, tuple[int, ...]] = {}

    # ------------------------------------------------------------------
    def add(self, pid: int, support: Iterable[int]) -> None:
        """Index *pid* if its support is small enough; no-op otherwise."""
        key = _key(support)
        if len(key) > INDEXED_MAX_DEGREE:
            return
        self._key_of[pid] = key
        self._pids_of.setdefault(key, set()).add(pid)
        self.counter.add("table_op")

    def update(self, pid: int, support: Iterable[int]) -> None:
        """Re-index *pid* after its support was reduced.

        Handles every transition: large -> large (stays unindexed),
        large -> small (newly indexed), small -> smaller (moved).
        """
        self.remove(pid)
        self.add(pid, support)

    def remove(self, pid: int) -> None:
        """Forget *pid*; unknown pids are ignored (never-indexed packets)."""
        key = self._key_of.pop(pid, None)
        if key is None:
            return
        pids = self._pids_of[key]
        pids.discard(pid)
        if not pids:
            del self._pids_of[key]
        self.counter.add("table_op")

    # ------------------------------------------------------------------
    def has(self, support: Iterable[int]) -> bool:
        """True iff a stored packet has exactly this support."""
        self.counter.add("table_op")
        return _key(support) in self._pids_of

    def pids(self, support: Iterable[int]) -> frozenset[int]:
        """Pids of stored packets with exactly this support."""
        self.counter.add("table_op")
        return frozenset(self._pids_of.get(_key(support), ()))

    def indexed_count(self) -> int:
        """Stored packets currently indexed (those of degree <= 3)."""
        return len(self._key_of)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SupportIndex(indexed={self.indexed_count()})"
