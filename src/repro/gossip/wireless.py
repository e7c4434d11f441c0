"""Wireless broadcast dissemination with COPE-style snooping.

§VI singles out wireless sensor networks as LTNC's most attractive
setting: "the broadcast nature of the communication medium opens many
perspectives of further optimizations", and §III-C2 notes that the
feedback information used by the smart construction "can be partially
obtained or inferred in a wireless setting by snooping packets sent by
close nodes as in COPE".  This module builds that setting:

* the radio topology — a :class:`~repro.topology.graph.Graph`, usually
  :func:`~repro.topology.generators.random_geometric` (nodes on the
  unit square, links within a radio radius, radius grown until the
  graph connects);
* :class:`WirelessSimulator` — per round, every ready node broadcasts
  one packet heard by *all* its neighbours.  One transmission, many
  receptions — but no abort channel: a receiver that already has the
  packet simply wastes the reception, which is why the smart
  construction matters more here than in the unicast setting;
* **snooping** — every node remembers the code vectors its neighbours
  broadcast.  A neighbour provably *has* what it sent, so the snooped
  degree-1/2 vectors build an approximate
  :class:`~repro.core.feedback.FeedbackState` of that neighbour (the
  inferred ``ccr``), against which the sender runs Algorithm 4 for one
  round-robin-chosen target; remaining neighbours ride along on the
  broadcast.

The approximation is *conservative*: it only ever under-estimates the
neighbour's components (the neighbour may know more than it sent), so a
pair the sender deems innovative may occasionally not be — but never
because the inference invented knowledge.  Tests pin this down.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.core.components import ConnectedComponents
from repro.core.feedback import FeedbackState
from repro.gossip.driver import Counter, CountedResult, drive
from repro.obs.metrics import MetricsCollector
from repro.obs.tracer import NULL_TRACER
from repro.rng import make_rng, spawn
from repro.schemes import CodingScheme, SchemeNode, resolve
from repro.topology.graph import Graph

__all__ = ["WirelessResult", "WirelessSimulator"]


@dataclass
class WirelessResult(CountedResult):
    """Metrics of one wireless dissemination run."""

    scheme: str
    n_nodes: int
    k: int
    rounds: int = 0
    transmissions: int = 0
    receptions: int = 0
    useful_receptions: int = 0
    completion_rounds: dict[int, int] = field(default_factory=dict)
    smart_targets: int = 0

    KIND: ClassVar[str] = "wireless"
    COUNTERS: ClassVar[tuple[Counter, ...]] = (
        Counter("rounds"),
        Counter("n_nodes", telemetry="nodes"),
        Counter("completed_count", telemetry="completed_nodes"),
        Counter("transmissions", trace="transmissions", closing=True),
        Counter("receptions", trace="receptions", closing=True),
        Counter("useful_receptions", trace="useful", closing=True),
        Counter("smart_targets", closing=True),
    )
    LAWS: ClassVar[tuple[str, ...]] = (
        "useful_receptions <= receptions",
        "smart_targets <= transmissions",
    )

    def broadcast_gain(self) -> float:
        """Receptions per transmission — the broadcast advantage."""
        if self.transmissions == 0:
            return 0.0
        return self.receptions / self.transmissions

    def usefulness(self) -> float:
        """Fraction of receptions that changed receiver state."""
        if self.receptions == 0:
            return 0.0
        return self.useful_receptions / self.receptions


class _Snoop:
    """Approximate neighbour state inferred from overheard packets.

    A neighbour that broadcast a packet provably holds it, so its
    decoded natives include every degree-1 vector it sent and its
    degree-2 components connect every pair it sent — a conservative
    under-approximation of the true ``ccr``.
    """

    def __init__(self, k: int) -> None:
        self.k = k
        self.components = ConnectedComponents(k)
        self._next_pid = 0

    def observe(self, support: set[int]) -> None:
        if len(support) == 1:
            (x,) = support
            if not self.components.is_decoded(x):
                self.components.mark_decoded(x)
        elif len(support) == 2:
            a, b = sorted(support)
            if self.components.is_decoded(a) or self.components.is_decoded(b):
                return
            if not self.components.same(a, b):
                self.components.add_edge(self._next_pid, a, b)
                self._next_pid += 1

    def state(self) -> FeedbackState:
        return FeedbackState.of(self.components)


class WirelessSimulator:
    """Broadcast dissemination over a radio topology.

    *graph* links the nodes within radio range of each other.
    Parameters mirror :class:`~repro.gossip.simulator.EpidemicSimulator`
    where applicable; the transport differences are structural: every
    send is a broadcast to all neighbours, there is no abort channel,
    and ``snoop=True`` enables the inferred-feedback smart construction.
    The source is attached to ``source_degree`` random nodes (a sink
    node with a radio, not a wired backbone).
    """

    def __init__(
        self,
        scheme: str | CodingScheme,
        graph: Graph,
        k: int,
        snoop: bool = False,
        source_degree: int = 3,
        max_rounds: int = 50_000,
        seed: int | np.random.Generator | None = 0,
        node_kwargs: dict[str, object] | None = None,
        tracer=None,
        metrics: MetricsCollector | None = None,
    ) -> None:
        self.graph = graph
        self.k = k
        self.snoop = snoop
        self.max_rounds = max_rounds
        n = graph.n_nodes
        master = make_rng(seed)
        rngs = spawn(master, n + 2)
        coding_scheme = resolve(scheme)
        self.coding_scheme = coding_scheme
        self.source: SchemeNode = coding_scheme.make_source(k, rng=rngs[0])
        self.nodes: list[SchemeNode] = [
            coding_scheme.make_node(
                i,
                k,
                n_nodes=n,
                rng=rngs[i + 1],
                **(node_kwargs or {}),
            )
            for i in range(n)
        ]
        source_degree = min(source_degree, n)
        picks = rngs[-1].choice(n, size=source_degree, replace=False)
        self.source_neighbors = [int(i) for i in picks]
        self._order_rng = make_rng(int(master.integers(0, 2**63)))
        # snoops[i][j]: what node i inferred about neighbour j; only
        # snooping reads them, so only snooping builds them.
        self._snoops: list[dict[int, _Snoop]] = [
            {j: _Snoop(k) for j in graph.neighbors(i)} if snoop else {}
            for i in range(n)
        ]
        self._smart_cursor = [0] * n
        self.result = WirelessResult(coding_scheme.name, n, k)
        # Observability: round-level events only (a broadcast round is
        # the natural unit here); session detail degrades to rounds.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics

    # ------------------------------------------------------------------
    def _deliver(
        self, sender_id: int | None, packet, hearers: list[int], round_index: int
    ) -> None:
        result = self.result
        result.transmissions += 1
        support = packet.support()
        for hearer in hearers:
            node = self.nodes[hearer]
            result.receptions += 1
            was_complete = node.is_complete()
            useful = node.receive(packet.copy())
            if useful:
                result.useful_receptions += 1
            if sender_id is not None and self.snoop:
                snoop = self._snoops[hearer].get(sender_id)
                if snoop is not None:
                    snoop.observe(set(support))
            if not was_complete and node.is_complete():
                result.completion_rounds[hearer] = round_index

    def _smart_state(self, sender_id: int) -> FeedbackState | None:
        """Inferred feedback for one round-robin neighbour target."""
        neighbors = self.graph.neighbors(sender_id)
        if not neighbors:
            return None
        cursor = self._smart_cursor[sender_id] % len(neighbors)
        self._smart_cursor[sender_id] += 1
        target = neighbors[cursor]
        self.result.smart_targets += 1
        return self._snoops[sender_id][target].state()

    def step(self, round_index: int) -> None:
        # The source broadcasts to the nodes in its radio range.
        self._deliver(
            None,
            self.source.make_packet(),
            self.source_neighbors,
            round_index,
        )
        order = self._order_rng.permutation(self.graph.n_nodes)
        for sender_id in order:
            sender_id = int(sender_id)
            sender = self.nodes[sender_id]
            if not sender.can_send():
                continue
            receiver_state = (
                self._smart_state(sender_id) if self.snoop else None
            )
            packet = sender.make_packet(receiver_state)
            self._deliver(
                sender_id,
                packet,
                self.graph.neighbors(sender_id),
                round_index,
            )
        self.result.rounds = round_index + 1

    def run(self) -> WirelessResult:
        """Run rounds until every node decoded or the horizon is hit."""
        return drive(
            self,
            self.step,
            span={"scheme": self.result.scheme, "snoop": self.snoop},
            ranked=self.nodes,
            telemetry=self._telemetry,
        )

    def _telemetry(self, m: MetricsCollector) -> None:
        """Record this run's own telemetry: scheme label and gauges."""
        m.label("scheme", self.result.scheme)
        m.gauge("broadcast_gain", self.result.broadcast_gain())
        m.gauge("usefulness", self.result.usefulness())
