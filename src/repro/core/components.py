"""Connected components of native packets (paper Table I, §III-B3).

Two natives ``x`` and ``x'`` are *connected* (``x ~ x'``) when the
degree-2 packet ``x ^ x'`` can be generated using only decoded natives
and stored packets of (current) degree 2.  The relation is an
equivalence; its classes are the connected components of the graph
whose edges are the stored degree-2 packets, plus one special class —
leader 0 — holding every decoded native (any pair of decoded natives is
trivially combinable).

The paper represents the partition with a leader array ``cc`` so that
``x ~ x' <=> cc(x) = cc(x')`` and ``cc(x) = 0 <=> x decoded`` (Fig. 5).
We add two things the refinement step needs in practice:

* member sets per leader, for smaller-into-larger merging and for
  enumerating substitution candidates;
* the *edge multigraph* itself (endpoint adjacency keyed by Tanner-graph
  pid), so that the payload of ``x ^ x'`` can be materialized by XOR-ing
  the packets along a path between ``x`` and ``x'``.

Lifecycle invariant (checked by :meth:`check_invariants`): components
never split.  An edge only disappears when (a) one endpoint decodes, in
which case belief propagation collapses the entire component into the
decoded class, or (b) the edge closes a cycle and is dropped by the
§III-C1 redundancy mechanism, which leaves connectivity intact.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError, RecodingError

__all__ = ["ConnectedComponents", "DECODED_LEADER"]

DECODED_LEADER = 0


class ConnectedComponents:
    """Leader-labelled partition of natives with degree-2 edge tracking."""

    def __init__(self, k: int, counter: OpCounter | None = None) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        self.k = k
        self.counter = counter if counter is not None else OpCounter()
        # Native i starts alone in component i + 1 (0 is the decoded class).
        self.cc = np.arange(1, k + 1, dtype=np.int64)
        self._members: dict[int, set[int]] = {i + 1: {i} for i in range(k)}
        self._decoded: set[int] = set()
        # adjacency: native -> neighbour -> pids of parallel degree-2 packets
        self._adj: dict[int, dict[int, set[int]]] = {}
        self._edge_of_pid: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def leader(self, x: int) -> int:
        """Leader label of native *x* (0 when decoded)."""
        self.counter.add("cc_lookup")
        return int(self.cc[x])

    def same(self, x: int, y: int) -> bool:
        """True iff ``x ~ y``: ``x ^ y`` is generable from degree <= 2."""
        self.counter.add("cc_lookup", 2)
        return bool(self.cc[x] == self.cc[y])

    def is_decoded(self, x: int) -> bool:
        self.counter.add("cc_lookup")
        return bool(self.cc[x] == DECODED_LEADER)

    def members(self, leader: int) -> frozenset[int]:
        """Undecoded natives under *leader* (empty for unknown leaders)."""
        if leader == DECODED_LEADER:
            return frozenset(self._decoded)
        return frozenset(self._members.get(leader, ()))

    def component_of(self, x: int) -> frozenset[int]:
        """All natives equivalent to *x* (including *x*)."""
        return self.members(self.leader(x))

    def component_count(self) -> int:
        """Number of non-decoded components (singletons included)."""
        return len(self._members)

    def decoded_count(self) -> int:
        return len(self._decoded)

    def labels(self) -> np.ndarray:
        """Copy of the leader array — the wire format of §III-C2.

        This is what a receiver ships over the feedback channel so the
        sender can run the smart construction of Algorithm 4.
        """
        return self.cc.copy()

    def has_edge_pid(self, pid: int) -> bool:
        return pid in self._edge_of_pid

    # ------------------------------------------------------------------
    # Maintenance (driven by Tanner-graph events)
    # ------------------------------------------------------------------
    def add_edge(self, pid: int, x: int, y: int) -> None:
        """Record the stored degree-2 packet *pid* = ``x ^ y``.

        Merges the two components when they differ (smaller relabelled
        into larger).  Both endpoints must be undecoded — the Tanner
        graph never stores a packet whose support intersects the decoded
        set, so a violation here means event wiring is broken.
        """
        if pid in self._edge_of_pid:
            raise DimensionError(f"edge pid {pid} already tracked")
        lx, ly = int(self.cc[x]), int(self.cc[y])
        if lx == DECODED_LEADER or ly == DECODED_LEADER:
            raise DimensionError(
                f"degree-2 packet {pid} touches a decoded native "
                f"({x} or {y})"
            )
        self._adj.setdefault(x, {}).setdefault(y, set()).add(pid)
        self._adj.setdefault(y, {}).setdefault(x, set()).add(pid)
        self._edge_of_pid[pid] = (x, y)
        self.counter.add("table_op", 2)
        if lx == ly:
            return  # cycle edge: partition unchanged
        # Relabel the smaller component into the larger one.
        if len(self._members[lx]) < len(self._members[ly]):
            lx, ly = ly, lx
        moving = self._members.pop(ly)
        for member in moving:
            self.cc[member] = lx
        self._members[lx] |= moving
        self.counter.add("table_op", len(moving))

    def remove_edge(self, pid: int) -> None:
        """Forget a degree-2 packet that left the Tanner graph.

        Never splits a component (see the lifecycle invariant in the
        module docstring); unknown pids are ignored because packets that
        were never edges (degree >= 3 throughout) also get removal
        events.
        """
        edge = self._edge_of_pid.pop(pid, None)
        if edge is None:
            return
        x, y = edge
        for a, b in ((x, y), (y, x)):
            pids = self._adj[a][b]
            pids.discard(pid)
            if not pids:
                del self._adj[a][b]
                if not self._adj[a]:
                    del self._adj[a]
        self.counter.add("table_op", 2)

    def mark_decoded(self, x: int) -> None:
        """Move native *x* into the decoded class (leader 0)."""
        label = int(self.cc[x])
        if label == DECODED_LEADER:
            return
        self.cc[x] = DECODED_LEADER
        members = self._members.get(label)
        if members is not None:
            members.discard(x)
            if not members:
                del self._members[label]
        self._decoded.add(x)
        self.counter.add("table_op", 2)

    # ------------------------------------------------------------------
    # Path materialization for the refiner
    # ------------------------------------------------------------------
    def path_pids(self, x: int, y: int) -> list[int]:
        """Pids of degree-2 packets whose XOR equals ``x ^ y``.

        BFS over the edge multigraph; intermediate natives cancel
        pairwise, so XOR-ing the packets along any simple path from *x*
        to *y* telescopes to exactly ``x ^ y``.  Raises
        :class:`~repro.errors.RecodingError` when no path exists —
        callers must check ``same(x, y)`` (and handle the decoded class
        separately: decoded pairs combine from decoded values, not
        edges).
        """
        if x == y:
            return []
        parent: dict[int, tuple[int, int]] = {x: (-1, -1)}
        queue: deque[int] = deque([x])
        while queue:
            u = queue.popleft()
            for v, pids in self._adj.get(u, {}).items():
                self.counter.add("cc_lookup")
                if v in parent:
                    continue
                parent[v] = (u, next(iter(pids)))
                if v == y:
                    path: list[int] = []
                    node = y
                    while node != x:
                        prev, pid = parent[node]
                        path.append(pid)
                        node = prev
                    path.reverse()
                    return path
                queue.append(v)
        raise RecodingError(
            f"no degree-2 path between natives {x} and {y}"
        )

    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Verify labels against ground-truth connectivity (tests only).

        Recomputes components from the adjacency structure and the
        decoded set, then checks the leader array induces exactly the
        same partition.
        """
        seen: set[int] = set()
        for x in range(self.k):
            if x in seen or x in self._decoded:
                continue
            # Flood fill the ground-truth component of x.
            comp = {x}
            queue = deque([x])
            while queue:
                u = queue.popleft()
                for v in self._adj.get(u, {}):
                    if v not in comp:
                        comp.add(v)
                        queue.append(v)
            seen |= comp
            labels = {int(self.cc[m]) for m in comp}
            assert len(labels) == 1, f"component {comp} has labels {labels}"
            (label,) = labels
            assert label != DECODED_LEADER, (
                f"undecoded component {comp} carries the decoded label"
            )
            assert self._members.get(label) == comp, (
                f"member set for {label} is {self._members.get(label)}, "
                f"expected {comp}"
            )
        for x in self._decoded:
            assert int(self.cc[x]) == DECODED_LEADER, f"decoded {x} mislabelled"
            assert x not in self._adj, f"decoded native {x} still has edges"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConnectedComponents(k={self.k}, "
            f"components={self.component_count()}, "
            f"decoded={len(self._decoded)}, edges={len(self._edge_of_pid)})"
        )
