"""Round-based epidemic push dissemination simulator (§IV-A).

A network of *N* nodes receives content split into *k* native packets
from one source.  Each gossip period:

1. the source pushes ``source_pushes`` fresh packets to random nodes;
2. every node that passed its aggressiveness trigger pushes one fresh
   (re)coded packet to one random peer, in a random order.

Transfers model the paper's TCP sessions: the code vector travels in
the header, so with a **binary** feedback channel the receiver can run
its redundancy check on the header alone and abort before the payload
is shipped (the session still costs a control exchange).  With a
**full** feedback channel the receiver additionally ships its
component-leader array beforehand, enabling LTNC's Algorithm-4 smart
construction for degrees 1-2.  With feedback **off**, every session
ships its payload.

The simulator is scheme-agnostic through the
:class:`~repro.schemes.descriptor.SchemeNode` protocol and the
:mod:`repro.schemes` registry, and collects the §IV-B metrics into a
:class:`~repro.gossip.metrics.DisseminationResult`.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import SimulationError
from repro.gossip.channel import ChannelModel
from repro.gossip.driver import drive
from repro.gossip.metrics import DisseminationResult
from repro.gossip.peer_sampling import PeerSampler, UniformSampler
from repro.obs.metrics import VOLUME_BOUNDARIES, MetricsCollector
from repro.obs.profiler import PhaseProfiler, phase_clock
from repro.obs.tracer import NULL_TRACER, node_rank
from repro.rng import derive, make_rng, spawn
from repro.schemes import CodingScheme, SchemeNode, resolve

__all__ = [
    "Feedback",
    "EpidemicSimulator",
    "run_dissemination",
    "ROUND_PLAN_VERSION",
    "validate_round_plan",
]

#: Version of the round-plan rng-stream layout.  The round loop draws
#: in bulk where it can, but only **across** independent streams;
#: within every stream the draw sequence is pinned, and this constant
#: names the pinned layout so future changes must bump it explicitly:
#:
#: v1 — per round, in order:
#:   * fault stream: one ``churns`` draw, then the ``_churn`` victim
#:     draw when it fires, then per-transfer loss/duplicate draws in
#:     transfer order;
#:   * order stream: one bulk ``integers(n_nodes, size=sources*pushes)``
#:     draw (the same values as one draw per push), then one
#:     ``permutation(n_nodes)``;
#:   * sampler stream: one target draw per sendable sender in
#:     permutation order, batched per maximal run of senders that are
#:     sendable when the run starts (``can_send`` is monotone within a
#:     node's lifetime — part of the scheme-node contract — so batching
#:     the draws of an already-sendable run cannot change its
#:     membership);
#:   * node streams: untouched — each node's draws happen inside its
#:     own ``make_packet``/``receive`` calls, whose order the plan
#:     preserves exactly.
ROUND_PLAN_VERSION = 1


def validate_round_plan(version: object) -> None:
    """Raise ``ValueError`` unless *version* names the pinned layout.

    The round-plan "artifact" is an rng-stream layout rather than a
    JSON payload, so the validator checks the one thing a consumer can
    carry: the layout version (a bare int, or a mapping with a
    ``round_plan_version`` key).  Registered in
    :mod:`repro.analysis.schemas` so the determinism linter ties the
    constant above to this contract.
    """
    if isinstance(version, dict):
        version = version.get("round_plan_version")
    if version != ROUND_PLAN_VERSION:
        raise ValueError(
            f"round_plan_version != {ROUND_PLAN_VERSION}: got {version!r}"
        )


class Feedback(enum.Enum):
    """Feedback-channel capability of the transport (§III-C2)."""

    NONE = "none"
    BINARY = "binary"
    FULL = "full"


class EpidemicSimulator:
    """One dissemination experiment: a source, *N* nodes, a scheme.

    Parameters
    ----------
    scheme:
        A registered scheme name (``"wc"``, ``"rlnc"``, ``"ltnc"``,
        ... — see :func:`repro.schemes.available_schemes`) or a
        :class:`~repro.schemes.descriptor.CodingScheme` descriptor.
    n_nodes:
        Network size *N* (receivers; the source is separate).
    k:
        Code length.
    content:
        Optional ``(k, m)`` payload matrix.  ``None`` runs in symbolic
        mode: all structure evolves identically, data XORs are counted
        but not executed (DESIGN.md §3) — the mode benches use.
    feedback:
        Transport capability; the paper's evaluation uses BINARY.
    source_pushes:
        Packets injected by the source per gossip period.
    max_rounds:
        Safety horizon; the run stops earlier once every node decoded.
    n_sources:
        Number of independent full-content sources (replicated origins;
        edge-cache and multi-origin scenarios use more than one).  Each
        source injects ``source_pushes`` packets per round.
    seed:
        Master seed; node rngs are derived deterministically.
    node_kwargs:
        Forwarded to every node constructor (scheme-specific knobs).
    source_kwargs:
        Forwarded to the source constructor.
    sampler:
        Peer-sampling service; uniform by default.
    channel:
        Fault model (loss / duplication / churn); perfect by default.
    tracer:
        Observability sink (:class:`repro.obs.tracer.JsonlTracer`);
        defaults to the shared null tracer.  Tracing reads no rng and
        charges no OpCounter, so results are bit-identical either way
        (pinned by ``tests/test_obs_invariance.py``).
    profiler:
        Optional :class:`repro.obs.profiler.PhaseProfiler`; when given,
        the run charges per-phase wall times (sampling / channel /
        encode / decode / refine) through the phase-clock seam.
    metrics:
        Optional :class:`repro.obs.metrics.MetricsCollector`; the run
        records its mergeable telemetry (counters, gauges, histograms)
        into it after the loop finishes.  Recording reads only final
        result state — no rng draws, no OpCounter charges.
    """

    def __init__(
        self,
        scheme: str | CodingScheme,
        n_nodes: int,
        k: int,
        content: np.ndarray | None = None,
        feedback: Feedback = Feedback.BINARY,
        source_pushes: int = 4,
        n_sources: int = 1,
        max_rounds: int = 100_000,
        seed: int | np.random.Generator | None = 0,
        node_kwargs: dict[str, object] | None = None,
        source_kwargs: dict[str, object] | None = None,
        sampler: PeerSampler | None = None,
        channel: ChannelModel | None = None,
        tracer=None,
        profiler: PhaseProfiler | None = None,
        metrics: MetricsCollector | None = None,
    ) -> None:
        if n_nodes < 2:
            raise SimulationError(f"n_nodes must be >= 2, got {n_nodes}")
        if source_pushes < 1:
            raise SimulationError(
                f"source_pushes must be >= 1, got {source_pushes}"
            )
        if n_sources < 1:
            raise SimulationError(f"n_sources must be >= 1, got {n_sources}")
        self.coding_scheme = resolve(scheme)
        self.scheme = self.coding_scheme.name
        self.n_nodes = n_nodes
        self.k = k
        self.feedback = feedback
        self.source_pushes = source_pushes
        self.n_sources = n_sources
        self.max_rounds = max_rounds
        master = make_rng(seed)
        rngs = spawn(master, n_nodes + 2)
        payload_nbytes = int(content.shape[1]) if content is not None else None
        self.sources: list[SchemeNode] = [
            self.coding_scheme.make_source(
                k, content, rng=rngs[0], **(source_kwargs or {})
            )
        ]
        self.nodes: list[SchemeNode] = [
            self.coding_scheme.make_node(
                i,
                k,
                payload_nbytes=payload_nbytes,
                n_nodes=n_nodes,
                rng=rngs[i + 1],
                **(node_kwargs or {}),
            )
            for i in range(n_nodes)
        ]
        self.sampler = (
            sampler
            if sampler is not None
            else UniformSampler(n_nodes, rng=rngs[-1])
        )
        self.channel = channel if channel is not None else ChannelModel()
        self._order_rng = make_rng(int(master.integers(0, 2**63)))
        self._fault_rng = make_rng(int(master.integers(0, 2**63)))
        self._node_rng_seed = int(master.integers(0, 2**63))
        # Extra sources draw their rngs from the derive() tree so the
        # n_sources=1 stream layout stays bit-identical to older runs.
        for j in range(1, n_sources):
            self.sources.append(
                self.coding_scheme.make_source(
                    k,
                    content,
                    rng=derive(self._node_rng_seed, "source", j),
                    **(source_kwargs or {}),
                )
            )
        self._payload_nbytes = payload_nbytes
        self._node_kwargs = dict(node_kwargs or {})
        self.result = DisseminationResult(self.scheme, n_nodes, k)
        self._data_received = [0] * n_nodes
        # Incomplete node ids, maintained incrementally as completions
        # are detected (prewarm / transfer), so churn never rescans the
        # whole membership.
        self._incomplete: set[int] = {
            i for i, node in enumerate(self.nodes) if not node.is_complete()
        }
        # Observability: the phase-clock seam is chosen once, here; it
        # is the null clock unless the run is profiled or traced per
        # session, so the unobserved loop reads no clock.
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.profiler = profiler
        self.metrics = metrics
        self._clock = phase_clock(profiler, self.tracer)
        for peer in (*self.sources, *self.nodes):
            self._observe(peer)
        # Nodes whose can_send() has been observed True.  Valid as a
        # cache because can_send is monotone within a node's lifetime
        # (scheme-node contract); _churn drops the crashed identity.
        self._sendable: set[int] = set()

    @property
    def source(self) -> SchemeNode:
        """The first (historically only) content source."""
        return self.sources[0]

    # ------------------------------------------------------------------
    def prewarm(self, node_ids: list[int], packets_per_node: int) -> None:
        """Pre-load node caches before round 0 (edge-cache workloads).

        Packets are drawn from the sources round-robin and delivered
        out-of-band — no session metrics are recorded, mirroring
        content pre-placement that happened before the gossip epoch
        started (Recayte et al., caching at the edge with LT codes).
        Warm packets do count as data received, so the overhead metric
        keeps meaning "packets delivered beyond the k fundamentally
        needed" (and stays non-negative).  A node that completes during
        warm-up is recorded as completing at round 0.
        """
        if packets_per_node < 0:
            raise SimulationError(
                f"packets_per_node must be >= 0, got {packets_per_node}"
            )
        for idx, node_id in enumerate(node_ids):
            node = self.nodes[node_id]
            source = self.sources[idx % len(self.sources)]
            for _ in range(packets_per_node):
                if node.is_complete():
                    break
                self._data_received[node_id] += 1
                node.receive(source.make_packet(None))
            if node.is_complete():
                self._incomplete.discard(node_id)
                self.result.completion_rounds.setdefault(node_id, 0)
                self.result.data_until_complete.setdefault(
                    node_id, self._data_received[node_id]
                )

    def _observe(self, node: SchemeNode) -> None:
        """Hand the run's phase clock to *node* (LTNC nodes time refine)."""
        if hasattr(node, "clock"):
            node.clock = self._clock

    # ------------------------------------------------------------------
    def _transfer(
        self, sender: SchemeNode, receiver_id: int, round_index: int
    ) -> bool | None:
        """One push session from *sender* to node *receiver_id*.

        Returns ``None`` when the receiver aborted at header time,
        otherwise whether the payload was useful (``False`` when lost).
        """
        clock = self._clock
        receiver = self.nodes[receiver_id]
        result = self.result
        result.sessions += 1
        receiver_state = None
        if self.feedback is Feedback.FULL:
            t0 = clock.start()
            receiver_state = receiver.feedback_state()
            clock.stop("decode", t0)
        t0 = clock.start()
        packet = sender.make_packet(receiver_state)
        clock.stop("encode", t0)
        result.recoded_packets += 1
        if self.feedback is not Feedback.NONE:
            t0 = clock.start()
            innovative = receiver.header_is_innovative(packet.vector)
            clock.stop("decode", t0)
            if not innovative:
                result.aborted += 1
                return None
        result.data_transfers += 1
        was_complete = receiver.is_complete()
        if not was_complete:
            self._data_received[receiver_id] += 1
        sender_id = int(getattr(sender, "node_id", -1))
        t0 = clock.start()
        lost = self.channel.loses(self._fault_rng, sender_id, receiver_id)
        duplicated = not lost and self.channel.duplicates(self._fault_rng)
        clock.stop("channel", t0)
        if lost:
            # The payload bytes were spent but never arrived.
            result.lost_transfers += 1
            return False
        t0 = clock.start()
        useful = receiver.receive(packet)
        if duplicated:
            result.duplicated_transfers += 1
            receiver.receive(packet.copy())
        clock.stop("decode", t0)
        if useful:
            result.useful_transfers += 1
        else:
            result.redundant_transfers += 1
        if not was_complete and receiver.is_complete():
            self._incomplete.discard(receiver_id)
            result.completion_rounds[receiver_id] = round_index
            result.data_until_complete[receiver_id] = self._data_received[
                receiver_id
            ]
        return useful

    def _session_event(
        self,
        sender: SchemeNode,
        receiver_id: int,
        round_index: int,
        outcome: bool | None,
    ) -> dict[str, object]:
        """Fields of the ``session`` trace event of one transfer."""
        return {
            "round": round_index,
            "sender": int(getattr(sender, "node_id", -1)),
            "receiver": receiver_id,
            "aborted": outcome is None,
            "useful": bool(outcome),
            "rank": node_rank(self.nodes[receiver_id]),
        }

    def _push(
        self,
        senders: list[SchemeNode],
        receiver_ids: list[int],
        round_index: int,
    ) -> None:
        """Run one planned run of sessions, in order."""
        transfer = self._transfer
        session = self._clock.session
        event = self._session_event
        for sender, receiver_id in zip(senders, receiver_ids):
            outcome = transfer(sender, receiver_id, round_index)
            session(event, sender, receiver_id, round_index, outcome)

    def _churn(self, round_index: int = -1) -> None:
        """Crash-and-restart one random incomplete node.

        Completed nodes are spared: they have persisted the decoded
        content.  The newcomer keeps the crashed node's identity but
        starts with empty coding state.
        """
        if not self._incomplete:
            return
        incomplete = sorted(self._incomplete)
        victim = int(incomplete[self._fault_rng.integers(len(incomplete))])
        self.result.churn_events += 1
        self.tracer.event("churn", round=round_index, node=victim)
        # Fold the dying node's counters so its work is not forgotten.
        self._fold_ops([self.nodes[victim]])
        self.nodes[victim] = self.coding_scheme.make_node(
            victim,
            self.k,
            payload_nbytes=self._payload_nbytes,
            n_nodes=self.n_nodes,
            rng=derive(
                self._node_rng_seed, "churn", victim, self.result.churn_events
            ),
            **self._node_kwargs,
        )
        self._observe(self.nodes[victim])
        self._data_received[victim] = 0
        self._sendable.discard(victim)

    def _step(self, round_index: int) -> None:
        """One gossip period under the v1 round plan.

        See ``ROUND_PLAN_VERSION`` for the pinned stream layout.  The
        permutation is executed in segmented maximal runs of senders
        that are already sendable when the run starts, so each run's
        targets come from one bulk sampler draw.  Monotone ``can_send``
        guarantees that run members would also pass their check at
        their own turn in the permutation, and the sender that ended a
        run is checked again after the run's sessions — its turn —
        before scanning resumes.
        """
        clock = self._clock
        t0 = clock.start()
        churns = self.channel.churns(self._fault_rng, round_index)
        clock.stop("channel", t0)
        if churns:
            self._churn(round_index)
        order_rng = self._order_rng
        n_nodes = self.n_nodes
        pushes = self.source_pushes
        # Sources are not members of the overlay: their targets are
        # uniform draws.  The overlay's push order, a permutation for
        # fairness, follows on the same stream.
        t0 = clock.start()
        targets = order_rng.integers(
            n_nodes, size=len(self.sources) * pushes
        ).tolist()
        order = order_rng.permutation(n_nodes).tolist()
        clock.stop("sampling", t0)
        self._push(
            [source for source in self.sources for _ in range(pushes)],
            targets,
            round_index,
        )
        # Node pushes, in permutation order.
        nodes = self.nodes
        sendable = self._sendable
        pos = 0
        while pos < n_nodes:
            run: list[int] = []
            while pos < n_nodes:
                sender_id = order[pos]
                if sender_id in sendable:
                    run.append(sender_id)
                elif nodes[sender_id].can_send():
                    sendable.add(sender_id)
                    run.append(sender_id)
                else:
                    break
                pos += 1
            if run:
                t0 = clock.start()
                targets = self.sampler.peers_batch(run, round_index)
                clock.stop("sampling", t0)
                self._push(
                    [nodes[sender_id] for sender_id in run], targets, round_index
                )
            if pos < n_nodes:
                # The sender that ended the run, at its turn: the run's
                # sessions may have made it sendable.
                sender_id = order[pos]
                pos += 1
                sender = nodes[sender_id]
                if sender.can_send():
                    sendable.add(sender_id)
                    t0 = clock.start()
                    targets = self.sampler.peers(sender_id, 1, round_index)
                    clock.stop("sampling", t0)
                    self._push([sender], targets, round_index)
        self.result.record_round(round_index)

    def run(self) -> DisseminationResult:
        """Run rounds until every node decoded or the horizon is hit."""
        return drive(
            self,
            self._step,
            span={"scheme": self.scheme},
            ranked=self.nodes,
            collect=lambda: self._fold_ops(self.nodes),
            telemetry=self._telemetry,
            profiler=self.profiler,
        )

    # ------------------------------------------------------------------
    def _fold_ops(self, nodes: list[SchemeNode]) -> None:
        """Fold *nodes*' operation counters into the result."""
        for node in nodes:
            recode = getattr(node, "recode_counter", None)
            decode = getattr(node, "decode_counter", None)
            if recode is not None:
                self.result.recode_ops.merge(recode)
            if decode is not None:
                self.result.decode_ops.merge(decode)

    def _telemetry(self, m: MetricsCollector) -> None:
        """Record this run's own telemetry (after the collect step)."""
        result = self.result
        m.label("scheme", self.scheme)
        for side, ops in (("recode", result.recode_ops), ("decode", result.decode_ops)):
            for op, value in sorted(ops.counts.items()):
                m.count(f"ops:{side}:{op}", value)
        m.gauge("completed_fraction", result.completed_fraction())
        m.gauge("abort_rate", result.abort_rate())
        for node_id in sorted(result.completion_rounds):
            m.observe(
                "data_until_complete",
                result.data_until_complete.get(node_id, self.k),
                boundaries=VOLUME_BOUNDARIES,
            )


def run_dissemination(
    scheme: str | CodingScheme,
    n_nodes: int,
    k: int,
    **kwargs: object,
) -> DisseminationResult:
    """Convenience one-shot wrapper around :class:`EpidemicSimulator`."""
    return EpidemicSimulator(scheme, n_nodes, k, **kwargs).run()  # type: ignore[arg-type]
