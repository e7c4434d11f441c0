"""Topology-derived link loss.

:class:`TopologyChannel` turns a graph into a per-link fault model for
the simulator's ``channel.loses(rng, sender, receiver)`` hook: a
transfer crossing *d* graph hops survives *d* independent per-hop
erasures, ``loss = 1 - (1 - per_hop_loss) ** d`` — the compounding
per-hop loss of Kabore et al.'s powerline model.  This is the closed
form the ``multihop_lossy`` preset hard-coded per ring; here it is
exact per node pair, for any graph.

The out-of-overlay source (sender id ``-1``) is attached at ``root``,
so source pushes to distant nodes pay the full multihop price — the
powerline head-end feeding a feeder line, the origin server above an
edge-cache tree.  On top of the topology loss the inherited
:class:`~repro.gossip.channel.HeterogeneousChannel` fields still
apply: base/per-node loss composes as independent erasures, and churn
scheduling is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.gossip.channel import HeterogeneousChannel
from repro.topology.graph import Graph

__all__ = ["TopologyChannel"]


@dataclass(frozen=True)
class TopologyChannel(HeterogeneousChannel):
    """Per-link loss compounding over the graph's hop distance."""

    graph: Graph | None = None
    per_hop_loss: float = 0.0
    root: int = 0
    # Memoised pairwise loss; derived state, excluded from eq/repr.
    _loss_cache: dict[tuple[int, int], float] = field(
        default_factory=dict, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.graph is None:
            raise SimulationError("TopologyChannel requires a graph")
        if not 0.0 <= self.per_hop_loss <= 1.0:
            raise SimulationError(
                f"per_hop_loss must be in [0, 1], got {self.per_hop_loss}"
            )
        if not 0 <= self.root < self.graph.n_nodes:
            raise SimulationError(
                f"root {self.root} outside node range [0, {self.graph.n_nodes})"
            )

    # ------------------------------------------------------------------
    def _topology_loss(self, sender: int, receiver: int) -> float:
        u = self.root if sender < 0 else sender
        v = self.root if receiver < 0 else receiver
        if u == v:
            return 0.0
        key = (u, v) if u < v else (v, u)
        cached = self._loss_cache.get(key)
        if cached is not None:
            return cached
        hops = self.graph.hop_distance(u, v)
        loss = 1.0 if hops < 0 else 1.0 - (1.0 - self.per_hop_loss) ** hops
        self._loss_cache[key] = loss
        return loss

    def loss_for(self, sender: int = -1, receiver: int = -1) -> float:
        topo = self._topology_loss(sender, receiver)
        base = super().loss_for(sender, receiver)
        # Independent erasures compose multiplicatively in survival.
        return 1.0 - (1.0 - topo) * (1.0 - base)
