"""Deterministic overlay generators for the topology subsystem.

Six families cover the structured settings the paper's motivation
names and the classics of the overlay literature:

* :func:`line` / :func:`ring` — 1-D chains: powerline feeders and
  token-style relays (Kabore et al. run LT codes over exactly this);
* :func:`grid2d` — 2-D lattices: dense sensor fields;
* :func:`random_geometric` — radio-range graphs on the unit square
  (the wireless setting of §VI; radius grows until connected);
* :func:`watts_strogatz` — small-world rewiring of a ring lattice;
* :func:`barabasi_albert` — preferential-attachment scale-free graphs
  (unstructured P2P overlays with hubs);
* :func:`edge_tree` — a rooted hierarchy: origin, edge caches, leaves
  (Recayte et al.'s edge-caching architecture).

Every generator is a pure function of its arguments: the same
``(n_nodes, params, rng-seed)`` always yields the same
:class:`~repro.topology.graph.Graph`.  Generators whose raw draw can
disconnect the graph repair it deterministically —
:func:`random_geometric` by growing the radius (preserving the
geometric semantics), the others via
:func:`~repro.topology.graph.repair_connectivity` splice edges.

:data:`GENERATORS` is the registry the declarative
:class:`~repro.topology.spec.TopologySpec` compiles against; register
new families there.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SimulationError
from repro.rng import make_rng
from repro.topology.graph import Edge, Graph, repair_connectivity

__all__ = [
    "GENERATORS",
    "generator_names",
    "make_graph",
    "line",
    "ring",
    "grid2d",
    "random_geometric",
    "watts_strogatz",
    "barabasi_albert",
    "edge_tree",
]


def _check_n(n_nodes: int, minimum: int = 2) -> None:
    if n_nodes < minimum:
        raise SimulationError(f"need at least {minimum} nodes, got {n_nodes}")


def line(n_nodes: int, rng: object = None) -> Graph:
    """A 1-D chain ``0 - 1 - ... - (n-1)`` (multihop feeder)."""
    _check_n(n_nodes)
    return Graph(
        n_nodes,
        [(i, i + 1) for i in range(n_nodes - 1)],
        name="line",
    )


def ring(n_nodes: int, rng: object = None) -> Graph:
    """The closed chain: a line plus the wrap-around edge."""
    _check_n(n_nodes)
    # Graph canonicalises and dedups, so n=2 degenerates to one link.
    edges = [(i, (i + 1) % n_nodes) for i in range(n_nodes)]
    return Graph(n_nodes, edges, name="ring")


def grid2d(n_nodes: int, rng: object = None) -> Graph:
    """A near-square 2-D lattice in row-major order.

    Node *i* sits at ``(i // cols, i % cols)`` with
    ``cols = ceil(sqrt(n))``; 4-neighbour edges connect horizontal and
    vertical lattice neighbours.  A ragged last row stays connected
    through its vertical links.
    """
    _check_n(n_nodes)
    cols = int(np.ceil(np.sqrt(n_nodes)))
    edges: list[Edge] = []
    positions = np.empty((n_nodes, 2))
    for i in range(n_nodes):
        row, col = divmod(i, cols)
        positions[i] = (col, row)
        if col + 1 < cols and i + 1 < n_nodes:
            edges.append((i, i + 1))
        if i + cols < n_nodes:
            edges.append((i, i + cols))
    # A 2-node "grid" degenerates to a line; guard the lone-node row
    # of e.g. n=5, cols=3 (node 3 starts row 1, still linked upward).
    return Graph(n_nodes, edges, positions=positions, name="grid2d")


def random_geometric(
    n_nodes: int,
    radius: float = 0.25,
    rng: np.random.Generator | int | None = None,
    max_radius_growth: int = 20,
) -> Graph:
    """A connected random geometric graph on the unit square.

    Nodes drop uniformly at random; links join pairs within *radius*.
    If the graph is disconnected the radius grows by 20 % (up to
    *max_radius_growth* times) until it connects; this is the radio
    topology :class:`~repro.gossip.wireless.WirelessSimulator` runs on.
    The final radius is stored on the returned graph as
    ``graph.radius``.
    """
    _check_n(n_nodes)
    if not 0 < radius <= 1.5:
        raise SimulationError(f"radius must be in (0, 1.5], got {radius}")
    generator = make_rng(rng)
    positions = generator.random((n_nodes, 2))
    delta = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((delta**2).sum(axis=2))
    for _ in range(max_radius_growth):
        close = dist <= radius
        np.fill_diagonal(close, False)
        iu, iv = np.nonzero(np.triu(close))
        graph = Graph(
            n_nodes,
            zip(iu.tolist(), iv.tolist()),
            positions=positions,
            name="random_geometric",
        )
        if graph.is_connected():
            graph.radius = radius  # type: ignore[attr-defined]
            return graph
        radius *= 1.2
    raise SimulationError(
        "could not connect the topology within the growth budget"
    )


def watts_strogatz(
    n_nodes: int,
    k_nearest: int = 4,
    rewire_p: float = 0.1,
    rng: np.random.Generator | int | None = None,
) -> Graph:
    """A Watts–Strogatz small-world graph.

    Start from a ring lattice where every node links to its
    ``k_nearest`` closest neighbours (``k_nearest // 2`` on each side),
    then rewire the far endpoint of each edge with probability
    *rewire_p* to a uniform non-duplicate target.  Rewiring can strand
    components; the deterministic splice repair reconnects them.
    """
    _check_n(n_nodes, 3)
    half = k_nearest // 2
    if half < 1:
        raise SimulationError(f"k_nearest must be >= 2, got {k_nearest}")
    if k_nearest >= n_nodes:
        raise SimulationError(
            f"k_nearest must be < n_nodes ({n_nodes}), got {k_nearest}"
        )
    if not 0.0 <= rewire_p <= 1.0:
        raise SimulationError(f"rewire_p must be in [0, 1], got {rewire_p}")
    generator = make_rng(rng)
    edges: set[Edge] = set()
    for i in range(n_nodes):
        for offset in range(1, half + 1):
            j = (i + offset) % n_nodes
            edges.add((i, j) if i < j else (j, i))
    rewired: set[Edge] = set()
    for u, v in sorted(edges):
        if generator.random() >= rewire_p:
            rewired.add((u, v))
            continue
        # Rewire the (u, v) edge's far endpoint to a fresh target.
        for _ in range(4 * n_nodes):
            w = int(generator.integers(n_nodes))
            candidate = (u, w) if u < w else (w, u)
            if w != u and candidate not in rewired and candidate not in edges:
                rewired.add(candidate)
                break
        else:  # dense corner case: keep the original edge
            rewired.add((u, v))
    rewired.update(repair_connectivity(n_nodes, rewired))
    return Graph(n_nodes, rewired, name="watts_strogatz")


def barabasi_albert(
    n_nodes: int,
    m_attach: int = 2,
    rng: np.random.Generator | int | None = None,
) -> Graph:
    """A Barabási–Albert scale-free graph (preferential attachment).

    Seeded with an ``m_attach + 1`` clique; each subsequent node
    attaches to ``m_attach`` distinct existing nodes drawn with
    probability proportional to their current degree (repeated-stubs
    sampling).  Connected by construction.  ``m_attach`` clamps to
    ``n_nodes - 1`` so profile-scaled presets stay valid at tiny sizes.
    """
    _check_n(n_nodes)
    if m_attach < 1:
        raise SimulationError(f"m_attach must be >= 1, got {m_attach}")
    m_attach = min(m_attach, n_nodes - 1)
    generator = make_rng(rng)
    seed_size = m_attach + 1
    edges: set[Edge] = {
        (i, j) for i in range(seed_size) for j in range(i + 1, seed_size)
    }
    # One stub per edge endpoint: sampling a uniform stub is sampling a
    # node with probability proportional to its degree.
    stubs: list[int] = [node for edge in sorted(edges) for node in edge]
    for new in range(seed_size, n_nodes):
        targets: set[int] = set()
        while len(targets) < m_attach:
            targets.add(stubs[int(generator.integers(len(stubs)))])
        for target in sorted(targets):
            edges.add((target, new))
            stubs.extend((target, new))
    return Graph(n_nodes, edges, name="barabasi_albert")


def edge_tree(
    n_nodes: int, branching: int = 3, rng: object = None
) -> Graph:
    """A rooted hierarchy: origin at node 0, *branching* children each.

    Nodes fill the tree breadth-first — node *i* hangs off parent
    ``(i - 1) // branching`` — mirroring an origin → edge-cache →
    client distribution hierarchy (Recayte et al.).
    """
    _check_n(n_nodes)
    if branching < 1:
        raise SimulationError(f"branching must be >= 1, got {branching}")
    edges = [((i - 1) // branching, i) for i in range(1, n_nodes)]
    return Graph(n_nodes, edges, name="edge_tree")


#: Declarative registry: name -> generator.  Every generator takes
#: ``(n_nodes, rng=..., **params)``; :func:`make_graph` is the uniform
#: entry point the scenario compiler uses.
GENERATORS: dict[str, Callable[..., Graph]] = {
    "line": line,
    "ring": ring,
    "grid2d": grid2d,
    "random_geometric": random_geometric,
    "watts_strogatz": watts_strogatz,
    "barabasi_albert": barabasi_albert,
    "edge_tree": edge_tree,
}


def generator_names() -> tuple[str, ...]:
    return tuple(sorted(GENERATORS))


def make_graph(
    name: str,
    n_nodes: int,
    rng: np.random.Generator | int | None = None,
    **params: object,
) -> Graph:
    """Instantiate a registered generator by name."""
    try:
        factory = GENERATORS[name]
    except KeyError:
        raise SimulationError(
            f"unknown topology {name!r}; expected one of {generator_names()}"
        ) from None
    try:
        return factory(n_nodes, rng=rng, **params)
    except TypeError as exc:
        raise SimulationError(
            f"bad parameters for topology {name!r}: {exc}"
        ) from None
