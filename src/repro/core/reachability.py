"""Degree-reachability heuristics (paper §III-B1).

A target degree *d* drawn from the Robust Soliton may be impossible to
build from the packets at hand.  Deciding exact reachability embeds the
subset-sum problem, so LTNC uses two cheap *necessary* conditions and
re-draws the degree when either fails:

1. **Mass bound** — packets of degree <= d can contribute at most
   ``sum_{i=1..d} i * n(i)`` distinct natives, so that sum must reach
   *d* (e.g. ``{x1+x2+x3, x1+x3, x2+x5}`` caps at ``2*2 + 3 = 7``).
2. **Coverage bound** — any combination only involves natives that are
   decoded or appear in some packet of degree <= d, so at least *d*
   distinct natives must be covered (e.g. degree 5 is impossible from
   ``{x1+x2+x3, x1+x3, x2+x5}``: only four natives ever appear).

Both are necessary, neither sufficient — the paper's own examples
(``{x1+x2, x3+x4}`` passes both for d = 3 yet degree 3 is unreachable)
— but in simulation the first drawn degree is accepted 99.9 % of the
time, which the text-stats bench reproduces.

Note on bound 2: the paper says packets "of degree less than d"; we use
"<= d" since a packet of degree exactly *d* is itself a valid build and
Algorithm 1 examines packets of degree <= d.  This only widens coverage
and cannot misclassify a reachable degree as unreachable.
"""

from __future__ import annotations

from repro.core.degree_index import DegreeIndex
from repro.costmodel.counters import OpCounter
from repro.lt.tanner import TannerGraph

__all__ = ["ReachabilityOracle"]


class ReachabilityOracle:
    """Evaluates the two §III-B1 upper bounds against live structures."""

    def __init__(
        self,
        index: DegreeIndex,
        graph: TannerGraph,
        counter: OpCounter | None = None,
    ) -> None:
        self.index = index
        self.graph = graph
        self.counter = counter if counter is not None else OpCounter()
        # Verdicts keyed by degree, valid for one index version (see
        # DegreeIndex.version).  Bound evaluations are pure functions of
        # the degree index and the stored supports, both frozen between
        # index mutations, so a hit replays the stored verdict — and the
        # exact ``table_op`` charge the evaluation made — without
        # re-walking the buckets.
        self._memo_version = -1
        self._memo: dict[int, tuple[bool, int]] = {}

    # ------------------------------------------------------------------
    def is_unreachable(self, d: int) -> bool:
        """True when either bound proves degree *d* cannot be built."""
        if d < 1:
            return True
        if self._memo_version != self.index.version:
            self._memo_version = self.index.version
            self._memo.clear()
        else:
            hit = self._memo.get(d)
            if hit is not None:
                verdict, ops = hit
                self.counter.add("table_op", ops)
                return verdict
        counts = self.counter.counts
        before = counts.get("table_op", 0)
        self.counter.add("table_op")
        if self.index.degree_mass(d) < d:
            verdict = True
        else:
            verdict = self.coverage(d) < d
        self._memo[d] = (verdict, counts.get("table_op", 0) - before)
        return verdict

    def coverage(self, d: int) -> int:
        """Distinct natives decoded or in a stored packet of degree <= d.

        Early-exits at *d* — the caller only compares against *d*, so
        counting further is wasted work.
        """
        covered = self.index.n(1)  # decoded natives, all distinct
        if covered >= d:
            return covered
        seen: set[int] = set()
        for degree in self.index.degrees_present():
            if degree < 2:
                continue
            if degree > d:
                break
            for pid in self.index.items_of_degree(degree):
                # Stored supports never contain decoded natives (graph
                # invariant), so the two contributions are disjoint.
                seen |= self.graph.packets[pid].support
                self.counter.add("table_op")
                if covered + len(seen) >= d:
                    return covered + len(seen)
        return covered + len(seen)

    def max_reachable(self) -> int:
        """Largest degree not excluded by either bound.

        Used as a fallback clamp when repeated draws keep hitting
        unreachable degrees (e.g. a node that only holds one packet).
        """
        top = min(
            self.index.degree_mass(self.index.k),
            self.coverage(self.index.k),
            self.index.k,
        )
        lo, hi = 0, top
        # Both bounds are monotone in d relative to themselves, but the
        # comparison "bound(d) >= d" is not monotone in general; a short
        # downward scan from the cap is simplest and d is small anyway.
        for d in range(hi, lo, -1):
            if not self.is_unreachable(d):
                return d
        return 0
