"""Declarative, JSON-round-trippable topology descriptions.

A :class:`TopologySpec` names a generator from
:data:`~repro.topology.generators.GENERATORS`, its parameters, and the
sampling / loss policy layered on the resulting graph.  It is the
``topology`` field of a
:class:`~repro.scenarios.spec.ScenarioSpec`: the scenario compiler
builds the graph once per trial (deterministically from the trial
seed) and threads it into a
:class:`~repro.topology.sampling.TopologySampler` and a
:class:`~repro.topology.channel.TopologyChannel`, so a structured
workload serialises, ships to worker processes, and reruns standalone
exactly like an unstructured one.
"""

from __future__ import annotations

import numpy as np

from dataclasses import asdict, dataclass, field

from repro.errors import SimulationError
from repro.gossip.channel import ChannelModel, HeterogeneousChannel
from repro.rng import derive, make_rng
from repro.topology.channel import TopologyChannel
from repro.topology.generators import GENERATORS, generator_names, make_graph
from repro.topology.graph import Graph
from repro.topology.sampling import TopologySampler

__all__ = ["TopologySpec"]

_LOSS_MODES = ("none", "hop")


@dataclass(frozen=True)
class TopologySpec:
    """One structured overlay, declaratively.

    Fields are plain JSON types, so the spec round-trips through
    :meth:`to_dict` / :meth:`from_dict` (and embeds losslessly in a
    scenario's JSON).

    ``graph``/``params`` select and parameterise a generator;
    ``escape`` is the sampler's long-range shortcut probability;
    ``loss_mode`` is ``"none"`` (the scenario's channel stays
    untouched) or ``"hop"`` (per-hop erasures compound along the hop
    distance), with ``per_hop_loss`` the per-hop erasure rate and
    ``root`` the node the out-of-overlay source is attached to.
    """

    graph: str = "ring"
    params: dict[str, object] = field(default_factory=dict)
    escape: float = 0.0
    loss_mode: str = "none"
    per_hop_loss: float = 0.0
    root: int = 0

    def __post_init__(self) -> None:
        if self.graph not in GENERATORS:
            raise SimulationError(
                f"unknown topology {self.graph!r}; "
                f"expected one of {generator_names()}"
            )
        if self.loss_mode not in _LOSS_MODES:
            raise SimulationError(
                f"loss_mode must be one of {_LOSS_MODES}, "
                f"got {self.loss_mode!r}"
            )
        if not 0.0 <= self.escape <= 1.0:
            raise SimulationError(
                f"escape must be in [0, 1], got {self.escape}"
            )
        if not 0.0 <= self.per_hop_loss <= 1.0:
            raise SimulationError(
                f"per_hop_loss must be in [0, 1], got {self.per_hop_loss}"
            )
        if self.root < 0:
            raise SimulationError(f"root must be >= 0, got {self.root}")

    # -- compilation ---------------------------------------------------
    def build_graph(
        self, n_nodes: int, rng: np.random.Generator | int | None = None
    ) -> Graph:
        """Instantiate the generator at *n_nodes* (deterministic in rng)."""
        graph = make_graph(self.graph, n_nodes, rng=make_rng(rng), **self.params)
        if self.root >= n_nodes:
            raise SimulationError(
                f"root {self.root} outside node range [0, {n_nodes})"
            )
        return graph

    def build_sampler(
        self, graph: Graph, rng: np.random.Generator | int | None = None
    ) -> TopologySampler:
        """The neighbourhood sampler for *graph*."""
        return TopologySampler(graph, escape=self.escape, rng=rng)

    def wrap_channel(self, graph: Graph, base: ChannelModel) -> ChannelModel:
        """Layer topology-derived loss onto *base* (``loss_mode`` permitting).

        ``loss_mode="none"`` returns *base* unchanged; ``"hop"`` carries
        the base channel's rates (including per-node loss and churn
        phases when *base* is heterogeneous) over into a
        :class:`TopologyChannel`.
        """
        if self.loss_mode == "none":
            return base
        node_loss = (
            base.node_loss if isinstance(base, HeterogeneousChannel) else ()
        )
        churn_phases = (
            base.churn_phases
            if isinstance(base, HeterogeneousChannel)
            else ()
        )
        return TopologyChannel(
            loss_rate=base.loss_rate,
            duplicate_rate=base.duplicate_rate,
            churn_rate=base.churn_rate,
            node_loss=node_loss,
            churn_phases=churn_phases,
            graph=graph,
            per_hop_loss=self.per_hop_loss,
            root=self.root,
        )

    def build(
        self,
        n_nodes: int,
        base_channel: ChannelModel,
        seed: int,
        label: str = "topology",
    ) -> tuple[Graph, TopologySampler, ChannelModel]:
        """Compile graph + sampler + channel from one derived seed tree."""
        graph = self.build_graph(n_nodes, rng=derive(seed, label, "graph"))
        sampler = self.build_sampler(graph, rng=derive(seed, label, "sampler"))
        channel = self.wrap_channel(graph, base_channel)
        return graph, sampler, channel

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "TopologySpec":
        try:
            return cls(**dict(payload))  # type: ignore[arg-type]
        except TypeError as exc:
            raise SimulationError(f"bad topology spec: {exc}") from None
