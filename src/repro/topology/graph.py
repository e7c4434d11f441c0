"""Shared undirected-graph core for structured overlays.

Every structured workload in the suite — powerline grids (Kabore et
al.), edge-cache hierarchies (Recayte et al.), wireless radio ranges
(§VI) — is a graph plus a policy for using it.  This module holds the
graph: an immutable adjacency structure with the queries the samplers
and channels need (neighbourhoods, BFS hop distances, connectivity)
and a deterministic connectivity repair used by the random generators.

Hop distances are computed by BFS on demand and memoised per source
node, so a dissemination run touching every (sender, receiver) pair
pays each BFS once.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Sequence

import numpy as np

from repro.errors import SimulationError

__all__ = ["Graph", "repair_connectivity"]

Edge = tuple[int, int]


def _canon(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


class Graph:
    """An immutable undirected graph on nodes ``0 .. n_nodes-1``.

    Parameters
    ----------
    n_nodes:
        Node count (>= 1).
    edges:
        Iterable of ``(u, v)`` pairs; order and duplicates are
        normalised away, self-loops are rejected.
    positions:
        Optional ``(n_nodes, 2)`` array of planar coordinates
        (geometric generators fill this in; purely informational).
    name:
        Generator tag, for reprs and reports.
    """

    def __init__(
        self,
        n_nodes: int,
        edges: Iterable[Edge],
        positions: np.ndarray | None = None,
        name: str = "graph",
    ) -> None:
        if n_nodes < 1:
            raise SimulationError(f"need at least 1 node, got {n_nodes}")
        self.n_nodes = n_nodes
        self.name = name
        edge_set: set[Edge] = set()
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise SimulationError(f"self-loop on node {u}")
            if not (0 <= u < n_nodes and 0 <= v < n_nodes):
                raise SimulationError(
                    f"edge ({u}, {v}) outside node range [0, {n_nodes})"
                )
            edge_set.add(_canon(u, v))
        self._edges: tuple[Edge, ...] = tuple(sorted(edge_set))
        adjacency: list[list[int]] = [[] for _ in range(n_nodes)]
        for u, v in self._edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self._adjacency: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adjacency
        )
        self.positions = positions
        self._hops_cache: dict[int, list[int]] = {}

    # -- basic queries -------------------------------------------------
    def neighbors(self, node_id: int) -> list[int]:
        """Adjacent nodes, ascending (a fresh list the caller may own)."""
        return list(self._adjacency[node_id])

    def degree(self, node_id: int) -> int:
        return len(self._adjacency[node_id])

    def average_degree(self) -> float:
        return 2.0 * len(self._edges) / self.n_nodes

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    # -- traversal -----------------------------------------------------
    def _bfs(self, source: int) -> None:
        hops = [-1] * self.n_nodes
        hops[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for v in self._adjacency[u]:
                if hops[v] < 0:
                    hops[v] = hops[u] + 1
                    queue.append(v)
        self._hops_cache[source] = hops

    def hops_from(self, source: int) -> list[int]:
        """BFS hop distance from *source* to every node (-1 unreachable)."""
        if not 0 <= source < self.n_nodes:
            raise SimulationError(
                f"source {source} outside node range [0, {self.n_nodes})"
            )
        if source not in self._hops_cache:
            self._bfs(source)
        return list(self._hops_cache[source])

    def hop_distance(self, u: int, v: int) -> int:
        """Shortest hop count between *u* and *v* (-1 if disconnected)."""
        if v not in self._hops_cache and u in self._hops_cache:
            u, v = v, u  # reuse whichever BFS already ran
        if v not in self._hops_cache:
            self._bfs(v)
        return self._hops_cache[v][u]

    def eccentricity(self, source: int) -> int:
        """Largest hop distance from *source* (graph must be connected)."""
        hops = self.hops_from(source)
        if min(hops) < 0:
            raise SimulationError("eccentricity undefined: graph disconnected")
        return max(hops)

    # -- connectivity --------------------------------------------------
    def components(self) -> list[list[int]]:
        """Connected components, each sorted, ordered by smallest member."""
        seen = [False] * self.n_nodes
        out: list[list[int]] = []
        for start in range(self.n_nodes):
            if seen[start]:
                continue
            seen[start] = True
            queue = deque([start])
            comp = [start]
            while queue:
                u = queue.popleft()
                for v in self._adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
                        queue.append(v)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return all(h >= 0 for h in self.hops_from(0))

    # -- dunder --------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n_nodes == other.n_nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n_nodes, self._edges))

    def __repr__(self) -> str:
        return (
            f"Graph({self.name!r}, n={self.n_nodes}, "
            f"edges={self.n_edges}, avg_deg={self.average_degree():.2f})"
        )


def repair_connectivity(
    n_nodes: int, edges: Sequence[Edge] | set[Edge]
) -> list[Edge]:
    """Edges that splice every stray component onto the largest one.

    Random generators (Watts–Strogatz rewiring in particular) can leave
    the graph in several components.  The repair is deterministic and
    rng-free: the smallest-id node of each stray component is linked to
    the smallest-id node of the largest component, so the same edge set
    always repairs the same way regardless of iteration order.
    """
    probe = Graph(n_nodes, edges)
    components = probe.components()
    if len(components) <= 1:
        return []
    anchor_component = max(components, key=len)
    anchor = anchor_component[0]
    return [
        _canon(component[0], anchor)
        for component in components
        if component is not anchor_component
    ]
