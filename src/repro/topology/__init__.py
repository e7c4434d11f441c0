"""Graph-structured overlays: generators, sampling, loss, presets.

The paper's epidemic dissemination assumes a uniform peer-sampling
overlay; its motivating deployments are graphs — multihop powerline
feeders, wireless radio ranges, edge-cache hierarchies.  This package
is the structured counterpart of the uniform substrate:

* :mod:`~repro.topology.graph` — the immutable :class:`Graph` core
  (adjacency, BFS hops, deterministic connectivity repair);
* :mod:`~repro.topology.generators` — ``line``/``ring``, ``grid2d``,
  ``random_geometric``, ``watts_strogatz``, ``barabasi_albert`` and
  ``edge_tree``, all deterministic under an integer seed, registered
  in :data:`GENERATORS`;
* :mod:`~repro.topology.sampling` — :class:`TopologySampler`, gossip
  targets from graph neighbourhoods with an optional long-range
  escape probability;
* :mod:`~repro.topology.channel` — :class:`TopologyChannel`, per-link
  loss compounding over the hop distance;
* :mod:`~repro.topology.spec` — the declarative :class:`TopologySpec`
  that :class:`~repro.scenarios.spec.ScenarioSpec` embeds as its
  ``topology`` field.

Scenario presets riding on this package: ``sensor_grid``,
``smallworld_gossip``, ``scalefree_p2p``, ``powerline_multihop``.
"""

from repro.topology.channel import TopologyChannel
from repro.topology.generators import (
    GENERATORS,
    barabasi_albert,
    edge_tree,
    generator_names,
    grid2d,
    line,
    make_graph,
    random_geometric,
    ring,
    watts_strogatz,
)
from repro.topology.graph import Graph, repair_connectivity
from repro.topology.sampling import TopologySampler
from repro.topology.spec import TopologySpec

__all__ = [
    "Graph",
    "repair_connectivity",
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
    "TopologySampler",
    "TopologyChannel",
    "TopologySpec",
]
