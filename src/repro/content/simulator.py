"""Round-based catalogue dissemination over the gossip substrate.

The :class:`CatalogueSimulator` lifts the single-content
:class:`~repro.gossip.simulator.EpidemicSimulator` loop to *C*
contents.  Each gossip period:

1. every origin pushes ``source_pushes`` packets; each push picks a
   content (popularity-weighted or round-robin) and a target uniformly
   among that content's interested nodes and the cache nodes — the
   request-driven feed of an origin serving a catalogue;
2. every node that can recode *some* content pushes one fresh packet
   of a uniformly chosen sendable content to one peer drawn from the
   scenario's sampler — interleaved gossip sessions across contents
   over the very same samplers and channels single-content scenarios
   use (topology overlays included).

Per (node, content) coding state is a lazily-created **endpoint**: a
scheme node from the :mod:`repro.schemes` registry, or — when the
content is
generation-striped — a :class:`~repro.generations.manager.GenerationNode`.
A receiver that neither wants a content nor caches it refuses the
session at header time under binary feedback (the paper's abort
mechanism, reused as demand filtering); without feedback the payload
ships and is wasted.

Every random draw comes from a :func:`repro.rng.derive` stream keyed
off the trial seed, so trials are bit-reproducible standalone and the
parallel runner's worker-count invariance holds unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.content.cache import NodeCache
from repro.content.demand import DemandModel
from repro.content.metrics import CatalogueResult
from repro.content.spec import ContentSpec
from repro.errors import SimulationError
from repro.generations.manager import (
    GenerationNode,
    GenerationPacket,
    GenerationSource,
)
from repro.gossip.channel import ChannelModel
from repro.gossip.driver import drive
from repro.gossip.peer_sampling import PeerSampler, UniformSampler
from repro.obs.metrics import MetricsCollector
from repro.obs.profiler import phase_clock
from repro.obs.tracer import NULL_TRACER
from repro.rng import derive
from repro.schemes import resolve

__all__ = ["CatalogueSimulator"]


class _PlainEndpoint:
    """A scheme node coding over the whole content at once."""

    def __init__(self, node) -> None:
        self.node = node

    def receive(self, packet) -> bool:
        return self.node.receive(packet)

    def innovative(self, packet) -> bool:
        return self.node.header_is_innovative(packet.vector)

    def can_send(self) -> bool:
        return self.node.can_send()

    def make_packet(self):
        return self.node.make_packet(None)

    def is_complete(self) -> bool:
        return self.node.is_complete()


class _StripedEndpoint:
    """A generation-striped LTNC node (packets carry a generation tag)."""

    def __init__(self, node: GenerationNode) -> None:
        self.node = node

    def receive(self, packet: GenerationPacket) -> bool:
        return self.node.receive(packet)

    def innovative(self, packet: GenerationPacket) -> bool:
        return self.node.header_is_innovative(packet)

    def can_send(self) -> bool:
        return self.node.can_send()

    def make_packet(self) -> GenerationPacket:
        return self.node.make_packet()

    def is_complete(self) -> bool:
        return self.node.is_complete()


class _StripedSource:
    """A generation source; emission only."""

    def __init__(self, source: GenerationSource) -> None:
        self.source = source

    def can_send(self) -> bool:
        return True

    def make_packet(self) -> GenerationPacket:
        return self.source.next_packet()

    def is_complete(self) -> bool:
        return True


#: Per-(node, content) coding state, one interface for both packet kinds.
_Endpoint = _PlainEndpoint | _StripedEndpoint | _StripedSource


class CatalogueSimulator:
    """Multi-content dissemination: a catalogue, demand, caches.

    Parameters
    ----------
    catalogue:
        The resolved :class:`~repro.content.spec.ContentSpec` tuple.
    n_nodes:
        Network size (receivers; origins are separate).
    demand:
        The :class:`~repro.content.demand.DemandModel` (popularity +
        interest assignment).
    interests:
        Per-node interest sets (content indices), usually
        ``demand.assign_interests(...)``.
    cache_policy / cache_capacity / cache_nodes / pinned:
        Edge-cache configuration; ``cache_policy=None`` disables
        caching.  ``pinned`` maps content names already resolved to
        indices by the caller.
    binary_feedback:
        When True (the default, the paper's evaluation transport), a
        receiver refuses non-innovative or unwanted packets at header
        time; when False every session ships its payload.
    source_schedule:
        ``"popularity"`` draws each origin push from the demand
        weights; ``"round_robin"`` cycles the catalogue.
    seed:
        Trial seed; **all** randomness is derived from it via
        :func:`repro.rng.derive` paths under ``"content"``.
    """

    def __init__(
        self,
        catalogue: tuple[ContentSpec, ...],
        n_nodes: int,
        demand: DemandModel,
        interests: list[tuple[int, ...]],
        cache_policy: str | None = None,
        cache_capacity: int = 0,
        cache_nodes: tuple[int, ...] = (),
        pinned: frozenset[int] = frozenset(),
        binary_feedback: bool = True,
        source_pushes: int = 4,
        n_sources: int = 1,
        source_schedule: str = "popularity",
        max_rounds: int = 100_000,
        seed: int = 0,
        node_kwargs: dict[str, object] | None = None,
        sampler: PeerSampler | None = None,
        channel: ChannelModel | None = None,
        tracer=None,
        metrics: MetricsCollector | None = None,
    ) -> None:
        if not catalogue:
            raise SimulationError("catalogue must hold at least one content")
        if n_nodes < 2:
            raise SimulationError(f"n_nodes must be >= 2, got {n_nodes}")
        if len(interests) != n_nodes:
            raise SimulationError(
                f"interests must list one set per node ({n_nodes}), "
                f"got {len(interests)}"
            )
        if source_pushes < 1:
            raise SimulationError(
                f"source_pushes must be >= 1, got {source_pushes}"
            )
        if n_sources < 1:
            raise SimulationError(f"n_sources must be >= 1, got {n_sources}")
        self.catalogue = catalogue
        self.n_contents = len(catalogue)
        self.n_nodes = n_nodes
        self.demand = demand
        self.interests = [tuple(sorted(w)) for w in interests]
        for node_id, wanted in enumerate(self.interests):
            if any(not 0 <= c < self.n_contents for c in wanted):
                raise SimulationError(
                    f"interest set of node {node_id} names contents "
                    f"outside the catalogue: {wanted}"
                )
        self.binary_feedback = binary_feedback
        self.source_pushes = source_pushes
        self.n_sources = n_sources
        self.source_schedule = source_schedule
        self.max_rounds = max_rounds
        self.seed = int(seed)
        self._node_kwargs = dict(node_kwargs or {})
        self.sampler = (
            sampler
            if sampler is not None
            else UniformSampler(n_nodes, rng=derive(self.seed, "content", "sampler"))
        )
        self.channel = channel if channel is not None else ChannelModel()
        self._order_rng = derive(self.seed, "content", "order")
        self._fault_rng = derive(self.seed, "content", "fault")

        # Interest index and the scoreboard of (content, node) pairs.
        self.interest_index = demand.interested_nodes(self.interests)
        pairs_per_content = tuple(
            len(nodes) for nodes in self.interest_index
        )
        self.result = CatalogueResult(
            n_nodes=n_nodes,
            content_names=tuple(c.name for c in catalogue),
            content_ks=tuple(c.k for c in catalogue),
            n_pairs=sum(pairs_per_content),
            pairs_per_content=pairs_per_content,
        )

        # Origins: every source holds the whole catalogue.
        self._sources: list[list[_Endpoint]] = [
            [
                self._make_source_endpoint(c, derive(self.seed, "content", "source", s, ci))
                for ci, c in enumerate(catalogue)
            ]
            for s in range(n_sources)
        ]
        self._next_rr = 0

        # Per-node lazily-created endpoints and caches.
        self._endpoints: list[dict[int, _Endpoint]] = [
            {} for _ in range(n_nodes)
        ]
        self._epoch = [0] * n_nodes  # churn restarts re-derive node rngs
        self._data_received: dict[tuple[int, int], int] = {}
        self.cache_nodes = tuple(sorted(cache_nodes))
        self.caches: dict[int, NodeCache] = {}
        if cache_policy is not None:
            for node_id in self.cache_nodes:
                self.caches[node_id] = NodeCache(
                    cache_policy, cache_capacity, pinned
                )
        # Origin target pools are static (interests and cache placement
        # never move): precompute once, outside the push hot loop.
        self._content_targets: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(set(self.interest_index[c]) | set(self.caches)))
            or tuple(range(n_nodes))
            for c in range(self.n_contents)
        )
        # Observability: one null-tracer default; the session seam is
        # chosen once, so the untraced loop only makes no-op calls.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self._clock = phase_clock(tracer=self.tracer)

    # ------------------------------------------------------------------
    def _make_source_endpoint(
        self, content: ContentSpec, rng: np.random.Generator
    ) -> _Endpoint:
        if content.striped:
            return _StripedSource(
                GenerationSource(
                    content.k, content.generation_size, rng=rng
                )
            )
        return _PlainEndpoint(
            resolve(content.scheme).make_source(content.k, rng=rng)
        )

    def _make_node_endpoint(
        self, node_id: int, content_index: int
    ) -> _Endpoint:
        content = self.catalogue[content_index]
        rng = derive(
            self.seed,
            "content",
            "node",
            node_id,
            content_index,
            self._epoch[node_id],
        )
        if content.striped:
            return _StripedEndpoint(
                GenerationNode(
                    node_id,
                    content.k,
                    content.generation_size,
                    rng=rng,
                    **self._node_kwargs,  # type: ignore[arg-type]
                )
            )
        return _PlainEndpoint(
            resolve(content.scheme).make_node(
                node_id,
                content.k,
                n_nodes=self.n_nodes,
                rng=rng,
                **self._node_kwargs,
            )
        )

    def endpoint(self, node_id: int, content_index: int) -> _Endpoint:
        """The (node, content) coding state, created on first contact."""
        book = self._endpoints[node_id]
        ep = book.get(content_index)
        if ep is None:
            ep = self._make_node_endpoint(node_id, content_index)
            book[content_index] = ep
        return ep

    def wants(self, node_id: int, content_index: int) -> bool:
        return content_index in self.interests[node_id]

    # ------------------------------------------------------------------
    def _pick_source_content(self) -> int:
        if self.source_schedule == "round_robin":
            content = self._next_rr
            self._next_rr = (self._next_rr + 1) % self.n_contents
            return content
        return self.demand.draw_content(self._order_rng)

    def _willing(self, node_id: int, content_index: int) -> bool:
        """Header-time demand filter: wants it, or can cache the packet.

        A full cache that cannot make room (pin policy, or the content
        is its only tenant at capacity) refuses here, so the willing →
        delivered → committed path never diverges from the cache's
        packet accounting.
        """
        if self.wants(node_id, content_index):
            return True
        cache = self.caches.get(node_id)
        if cache is None:
            return False
        if cache.would_admit(content_index):
            return True
        self.result.cache_rejects += 1
        return False

    def _transfer(
        self,
        sender_endpoint: _Endpoint,
        sender_id: int,
        sender_serves_from_cache: bool,
        receiver_id: int,
        content_index: int,
        round_index: int,
    ) -> bool | None:
        """One push session of *content* to node *receiver_id*.

        Returns ``None`` when the receiver refused at header time,
        otherwise whether the payload was useful (``False`` when lost or
        unwanted).
        """
        result = self.result
        result.sessions += 1
        packet = sender_endpoint.make_packet()
        result.recoded_packets += 1
        willing = self._willing(receiver_id, content_index)
        if self.binary_feedback:
            if not willing:
                result.aborted += 1
                result.unwanted += 1
                return None
            receiver = self.endpoint(receiver_id, content_index)
            if not receiver.innovative(packet):
                result.aborted += 1
                return None
        result.data_transfers += 1
        result.content_data_transfers[content_index] = (
            result.content_data_transfers.get(content_index, 0) + 1
        )
        if sender_id >= 0:
            result.edge_served += 1
            if sender_serves_from_cache:
                result.cache_served += 1
                # Refresh recency/frequency only when the serve actually
                # shipped a payload; an aborted header exchange served
                # nothing and must not perturb the eviction order.
                cache = self.caches.get(sender_id)
                if cache is not None:
                    cache.touch_served(content_index)
        wanted = self.wants(receiver_id, content_index)
        pair = (content_index, receiver_id)
        if wanted and pair not in result.completion_rounds:
            self._data_received[pair] = self._data_received.get(pair, 0) + 1
        if not willing:
            # No feedback channel: the payload shipped and is discarded.
            result.unwanted += 1
            result.redundant_transfers += 1
            return False
        if self.channel.loses(self._fault_rng, sender_id, receiver_id):
            result.lost_transfers += 1
            return False
        receiver = self.endpoint(receiver_id, content_index)
        was_complete = receiver.is_complete()
        deliveries = 2 if self.channel.duplicates(self._fault_rng) else 1
        useful = receiver.receive(packet)
        if deliveries == 2:
            result.duplicated_transfers += 1
            receiver.receive(packet.copy())
        if useful:
            result.useful_transfers += 1
        else:
            result.redundant_transfers += 1
        if not wanted:
            self._cache_commit(receiver_id, content_index)
        elif (
            not was_complete
            and receiver.is_complete()
            and pair not in result.completion_rounds
        ):
            result.completion_rounds[pair] = round_index
            result.data_until_complete[pair] = self._data_received[pair]
        return useful

    @staticmethod
    def _session_event(
        sender_id: int,
        receiver_id: int,
        content_index: int,
        from_cache: bool,
        round_index: int,
        outcome: bool | None,
    ) -> dict[str, object]:
        """Fields of the ``session`` trace event of one transfer."""
        return {
            "round": round_index,
            "sender": sender_id,
            "receiver": receiver_id,
            "content": content_index,
            "from_cache": from_cache,
            "aborted": outcome is None,
            "useful": bool(outcome),
        }

    def _cache_commit(self, node_id: int, content_index: int) -> None:
        """Account a delivered non-interest packet against the cache."""
        cache = self.caches[node_id]
        evicted = cache.admit(content_index)
        if evicted:
            book = self._endpoints[node_id]
            for victim in evicted:
                book.pop(victim, None)
        self.result.cache_stored += 1
        self.result.cache_evictions += len(evicted)

    # ------------------------------------------------------------------
    def _churn(self, round_index: int = -1) -> None:
        """Crash-and-restart one node with incomplete interests.

        Mirroring the single-content simulator's "completed nodes are
        spared": contents the victim already decoded are persisted and
        survive the restart; everything else — partial coding state
        and the whole cache — is lost.
        """
        incomplete = [
            i
            for i in range(self.n_nodes)
            if any(
                (c, i) not in self.result.completion_rounds
                for c in self.interests[i]
            )
        ]
        if not incomplete:
            return
        victim = int(incomplete[self._fault_rng.integers(len(incomplete))])
        self.result.churn_events += 1
        self.tracer.event("churn", round=round_index, node=victim)
        self._epoch[victim] += 1
        book = self._endpoints[victim]
        persisted = {
            c: ep
            for c, ep in book.items()
            if (c, victim) in self.result.completion_rounds
        }
        book.clear()
        book.update(persisted)
        cache = self.caches.get(victim)
        if cache is not None:
            cache.clear()
        for content in self.interests[victim]:
            pair = (content, victim)
            if pair not in self.result.completion_rounds:
                self._data_received.pop(pair, None)

    def _sendable_contents(self, node_id: int) -> list[int]:
        book = self._endpoints[node_id]
        return [c for c in sorted(book) if book[c].can_send()]

    def step(self, round_index: int) -> None:
        """Run one gossip period."""
        if self.channel.churns(self._fault_rng, round_index):
            self._churn(round_index)
        transfer = self._transfer
        session = self._clock.session
        event = self._session_event
        # Origin injection: request-driven, content then target.
        for source in self._sources:
            for _ in range(self.source_pushes):
                content = self._pick_source_content()
                targets = self._content_targets[content]
                target = int(
                    targets[self._order_rng.integers(len(targets))]
                )
                outcome = transfer(
                    source[content], -1, False, target, content, round_index
                )
                session(event, -1, target, content, False, round_index, outcome)
        # Node pushes, in random order, one content per node per round.
        order = self._order_rng.permutation(self.n_nodes)
        for raw_id in order:
            sender_id = int(raw_id)
            ready = self._sendable_contents(sender_id)
            if not ready:
                continue
            content = int(ready[self._order_rng.integers(len(ready))])
            (target,) = self.sampler.peers(sender_id, 1, round_index)
            from_cache = not self.wants(sender_id, content)
            outcome = transfer(
                self._endpoints[sender_id][content],
                sender_id,
                from_cache,
                target,
                content,
                round_index,
            )
            session(
                event, sender_id, target, content, from_cache, round_index, outcome
            )
        self.result.record_round(round_index)

    def run(self) -> CatalogueResult:
        """Run rounds until every interest pair decoded, or the horizon."""
        result = self.result
        return drive(
            self,
            self.step,
            span={"contents": self.n_contents},
            progress=lambda: {
                "completed_pairs": result.completed_count,
                "pairs_total": result.n_pairs,
            },
            complete=lambda pair: {"content": pair[0], "node": pair[1]},
            telemetry=self._telemetry,
        )

    def _telemetry(self, m: MetricsCollector) -> None:
        """Record this run's own telemetry: per-content counts, gauges."""
        result = self.result
        for content, value in sorted(result.content_data_transfers.items()):
            name = result.content_names[content]
            m.count(f"content:{name}:data_transfers", value)
        m.gauge("completed_fraction", result.completed_fraction())
        m.gauge("abort_rate", result.abort_rate())
        m.gauge("cache_hit_ratio", result.cache_hit_ratio())
        m.gauge("edge_served_fraction", result.edge_served_fraction())
