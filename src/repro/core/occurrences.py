"""Occurrence statistics of native packets in sent packets (Table I).

Belief propagation needs the degrees of *native* packets across the
encoded stream to have minimal variance (ideally a Dirac, §II).  Each
LTNC node therefore tracks, for every native, how many of its
previously *sent* packets contained that native; the refinement step
(§III-B3) substitutes frequent natives with rare connected ones to
drive the distribution toward uniform.

Frequencies only ever increment by one, so the tracker keeps exact
buckets ``count -> natives`` and a running minimum: the refiner asks
for candidates *strictly below* a frequency, scanning buckets from the
minimum upward — the first acceptable candidate is automatically the
least frequent one (the paper's argmin).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError

__all__ = ["OccurrenceTracker"]


class OccurrenceTracker:
    """Per-native counts of appearances in packets sent by this node."""

    def __init__(self, k: int, counter: OpCounter | None = None) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        self.k = k
        self.counter = counter if counter is not None else OpCounter()
        # Counts live in a plain list: numpy scalar reads and writes
        # would dominate record_sent, which runs once per sent native.
        self._counts = [0] * k
        self._buckets: dict[int, set[int]] = {0: set(range(k))}
        self._min_count = 0
        self.packets_sent = 0
        # Memoized views for the refinement scan: the ascending
        # non-empty counts, and tuple(frozenset(bucket)) snapshots per
        # count.  Iteration order of a CPython set depends on its full
        # mutation history, and the refinement result depends on which
        # acceptable candidate comes first, so the snapshots pin the
        # order a frozenset copy of the bucket has.  record_sent (the
        # single bucket-mutation site) invalidates what it touches.
        self._counts_sorted: list[int] | None = None
        self._bucket_cache: dict[int, tuple[int, ...]] = {}

    @property
    def counts(self) -> np.ndarray:
        """Per-native occurrence counts, as a fresh int64 array."""
        return np.array(self._counts, dtype=np.int64)

    # ------------------------------------------------------------------
    def record_sent(self, support: Iterable[int]) -> None:
        """Account one sent packet containing the natives in *support*.

        Two ``table_op`` per native (leave the old bucket, join the
        next), charged as one batched add.
        """
        counts = self._counts
        buckets = self._buckets
        cache_pop = self._bucket_cache.pop
        moved = 0
        for x in support:
            if not 0 <= x < self.k:
                raise DimensionError(f"native {x} outside 0..{self.k - 1}")
            old = counts[x]
            counts[x] = old + 1
            bucket = buckets[old]
            bucket.discard(x)
            if not bucket:
                del buckets[old]
            buckets.setdefault(old + 1, set()).add(x)
            cache_pop(old, None)
            cache_pop(old + 1, None)
            moved += 1
        if moved:
            self._counts_sorted = None
        self.counter.add("table_op", 2 * moved)
        self.packets_sent += 1
        # The minimum can only move up, and only when its bucket drains.
        while self._min_count not in buckets:
            self._min_count += 1

    # ------------------------------------------------------------------
    def min_frequency(self) -> int:
        """Smallest occurrence count over all natives."""
        return self._min_count

    def nonempty_counts(self) -> list[int]:
        """Ascending counts with a non-empty bucket, memoized.

        Lets the refinement scan step only through real buckets instead
        of every integer in ``[min, limit)``; the scan charges the
        skipped empty counts one ``table_op`` each, arithmetically.
        """
        counts = self._counts_sorted
        if counts is None:
            counts = self._counts_sorted = sorted(self._buckets)
        return counts

    def bucket_tuple(self, count: int) -> tuple[int, ...]:
        """Bucket *count* as a memoized tuple, in frozenset order.

        Candidates come in the order a ``frozenset`` copy of the bucket
        iterates, so the refinement scan's result (and its ``examined``
        charge) is the one a frozenset walk would produce.  Charges
        nothing; the scan accounts its own ``table_op`` per count
        visited.
        """
        cached = self._bucket_cache.get(count)
        if cached is None:
            bucket = self._buckets.get(count)
            cached = tuple(frozenset(bucket)) if bucket else ()
            self._bucket_cache[count] = cached
        return cached

    # ------------------------------------------------------------------
    def rsd(self) -> float:
        """Relative standard deviation (std / mean) — the §III-B3 metric.

        The paper reports 0.1 % for LTNC nodes mid-dissemination; zero
        until the first packet is sent.
        """
        counts = self.counts
        mu = counts.mean()
        if mu == 0:
            return 0.0
        return float(counts.std() / mu)

    def check_invariants(self) -> None:
        """Verify buckets mirror the counts (tests only)."""
        counts = self._counts
        for count, bucket in self._buckets.items():
            assert bucket, f"empty bucket {count} kept alive"
            for x in bucket:
                assert counts[x] == count, (
                    f"native {x} in bucket {count} but counts {counts[x]}"
                )
        assert min(counts) == self._min_count, (
            f"min bucket {self._min_count} vs counts min {min(counts)}"
        )
        total = sum(len(b) for b in self._buckets.values())
        assert total == self.k, f"buckets cover {total} of {self.k} natives"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OccurrenceTracker(k={self.k}, sent={self.packets_sent}, "
            f"rsd={self.rsd():.4f})"
        )
