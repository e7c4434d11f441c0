"""The LTNC node: decoder, complementary structures, and the recoder.

This is the paper's contribution assembled: a dissemination participant
that decodes with belief propagation and *recodes* fresh encoded
packets preserving the statistical structure of LT codes (§III).

Every complementary data structure of Table I is maintained
incrementally from Tanner-graph events, so the recoding path never
scans the graph:

* :class:`~repro.core.degree_index.DegreeIndex` — packets by degree,
  feeding Algorithm 1 and the reachability bounds;
* :class:`~repro.core.components.ConnectedComponents` — the leader
  array ``cc`` plus the degree-2 edge multigraph, feeding Algorithm 2,
  Algorithm 3 (degree-2 rule), and Algorithm 4;
* :class:`~repro.core.support_index.SupportIndex` — exact-support
  lookups for the degree-3 redundancy rule;
* :class:`~repro.core.occurrences.OccurrenceTracker` — native
  frequencies in *sent* packets, the refinement criterion.

The recoding pipeline of :meth:`make_packet` is §III-B verbatim:
pick a Robust Soliton degree (re-drawing unreachable ones), build
greedily (Algorithm 1), refine (Algorithm 2) and ship.  With a full
feedback channel, picked degrees 1 and 2 go through the Algorithm-4
smart construction instead, guaranteeing innovative packets.

The node implements the scheme protocol shared with
:class:`~repro.rlnc.node.RlncNode` and :class:`~repro.wc.node.WcNode`
(``can_send`` / ``make_packet`` / ``header_is_innovative`` /
``receive`` / ``feedback_state`` / ``is_complete``), so the epidemic
simulator treats all three schemes uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from repro.coding.packet import EncodedPacket, xor_payloads
from repro.core.builder import build_packet
from repro.core.components import ConnectedComponents
from repro.core.degree_index import DegreeIndex
from repro.core.feedback import (
    FeedbackState,
    find_innovative_native,
    find_innovative_pair,
)
from repro.core.occurrences import OccurrenceTracker
from repro.core.reachability import ReachabilityOracle
from repro.core.redundancy import RedundancyDetector
from repro.core.refiner import pair_payload, refine_packet
from repro.core.support_index import SupportIndex
from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError, RecodingError
from repro.gf2.bitvec import BitVector
from repro.lt.decoder import BeliefPropagationDecoder
from repro.lt.distributions import robust_soliton
from repro.lt.tanner import TannerListener
from repro.obs.metrics import MetricsCollector
from repro.obs.profiler import NULL_CLOCK, PhaseClock
from repro.rng import make_rng

__all__ = [
    "LTNC_AGGRESSIVENESS",
    "MAX_DEGREE_RETRIES",
    "PPM",
    "RSD_MIN_PACKETS",
    "LtncStats",
    "LtncNode",
]

#: §IV-A: the share of k innovative packets a node holds before it
#: recodes, tuned so completion time is minimised, "typically 1 %".
LTNC_AGGRESSIVENESS = 0.01
#: Redraws of an unreachable degree before clamping to the largest
#: reachable one.
MAX_DEGREE_RETRIES = 64
#: Telemetry carries fractions as integer parts per million.
PPM = 1_000_000
#: A node records its occurrence RSD once it sent this many packets.
RSD_MIN_PACKETS = 20
#: Buckets of a node's occurrence RSD in ppm (the paper reports 1,000).
_RSD_PPM_BOUNDARIES = (1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6)


@dataclass
class LtncStats:
    """Recoding statistics the paper reports in §III-B (TXT1-TXT3)."""

    degree_picks: int = 0
    first_pick_accepted: int = 0
    degree_retries: int = 0
    degree_fallbacks: int = 0
    builds: int = 0
    build_hits: int = 0
    deviation_sum: float = 0.0
    substitutions: int = 0
    packets_sent: int = 0
    smart_degree1: int = 0
    smart_degree2: int = 0
    smart_misses: int = 0

    @classmethod
    def from_counters(cls, counters: Mapping[str, int]) -> "LtncStats":
        """The stats pooled in the ``ltnc:*`` counters that
        :meth:`LtncNode.record_telemetry` records."""
        names = [f.name for f in fields(cls) if f.name != "deviation_sum"]
        pooled = {name: counters[f"ltnc:{name}"] for name in names}
        return cls(**pooled, deviation_sum=counters["ltnc:deviation_ppm"] / PPM)

    @property
    def first_pick_acceptance(self) -> float:
        """Fraction of recodes whose first drawn degree was accepted.

        The paper reports 99.9 %.
        """
        if self.degree_picks == 0:
            return 1.0
        return self.first_pick_accepted / self.degree_picks

    @property
    def average_retries(self) -> float:
        """Average redraws *when the first degree was discarded* (1.02)."""
        rejected = self.degree_picks - self.first_pick_accepted
        if rejected == 0:
            return 0.0
        return self.degree_retries / rejected

    @property
    def build_hit_rate(self) -> float:
        """Fraction of builds reaching the target degree exactly (95 %)."""
        if self.builds == 0:
            return 1.0
        return self.build_hits / self.builds

    @property
    def average_relative_deviation(self) -> float:
        """Mean of (target - obtained) / target over builds (0.2 %)."""
        if self.builds == 0:
            return 0.0
        return self.deviation_sum / self.builds


class _StructureMaintainer(TannerListener):
    """Routes Tanner-graph events into the Table-I structures."""

    def __init__(self, node: "LtncNode") -> None:
        self.node = node

    def on_packet_stored(self, pid: int, support: set[int]) -> None:
        node = self.node
        node.degree_index.add_packet(pid, len(support))
        node.support_index.add(pid, support)
        if len(support) == 2:
            a, b = sorted(support)
            node.components.add_edge(pid, a, b)

    def on_packet_degree_changed(self, pid: int, support: set[int]) -> None:
        node = self.node
        node.degree_index.update_packet(pid, len(support))
        node.support_index.update(pid, support)
        if len(support) == 2:
            a, b = sorted(support)
            node.components.add_edge(pid, a, b)

    def on_packet_removed(self, pid: int, reason: str) -> None:
        node = self.node
        node.degree_index.remove_packet(pid)
        node.support_index.remove(pid)
        node.components.remove_edge(pid)

    def on_native_decoded(self, index: int) -> None:
        node = self.node
        node.degree_index.add_decoded(index)
        node.components.mark_decoded(index)
        node._decoded_mask |= 1 << index


class LtncNode:
    """A dissemination participant running LT network coding.

    Parameters
    ----------
    node_id:
        Identifier used by the simulator.
    k:
        Code length (number of native packets).
    payload_nbytes:
        Payload size *m*, or ``None`` for symbolic mode (structure
        evolves identically; data XORs are counted, not executed).
    rng:
        Seed or generator for all recoding randomness.
    aggressiveness:
        Fraction of *k* innovative packets a node must hold before it
        starts recoding (§IV-A; :data:`LTNC_AGGRESSIVENESS` by default).
    refine:
        Apply Algorithm 2 after building (ablation knob).
    detect_redundancy:
        Install Algorithm 3 as the decoder's drop policy, discarding
        generable packets at reception and during decoding (ablation
        knob; the binary-feedback header check is always available
        through :meth:`header_is_innovative`).
    """

    scheme = "ltnc"

    def __init__(
        self,
        node_id: int,
        k: int,
        payload_nbytes: int | None = None,
        rng: np.random.Generator | int | None = None,
        aggressiveness: float = LTNC_AGGRESSIVENESS,
        refine: bool = True,
        detect_redundancy: bool = True,
    ) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        if not 0.0 <= aggressiveness <= 1.0:
            raise DimensionError(
                f"aggressiveness must be in [0, 1], got {aggressiveness}"
            )
        self.node_id = node_id
        self.k = k
        self.payload_nbytes = payload_nbytes
        #: Recoded degrees follow the Robust Soliton, the optimal
        #: choice (§II); one instance per k is shared by every node.
        self.distribution = robust_soliton(k)
        self.rng = make_rng(rng)
        self.aggressiveness = aggressiveness
        self.refine = refine

        self.recode_counter = OpCounter()
        self.decode_counter = OpCounter()
        self.decoder = BeliefPropagationDecoder(k, counter=self.decode_counter)
        self.degree_index = DegreeIndex(k, counter=self.decode_counter)
        self.components = ConnectedComponents(k, counter=self.decode_counter)
        self.support_index = SupportIndex(counter=self.decode_counter)
        self.detector = RedundancyDetector(
            self.components, self.support_index, counter=self.decode_counter
        )
        self.occurrences = OccurrenceTracker(k, counter=self.recode_counter)
        self.oracle = ReachabilityOracle(
            self.degree_index, self.decoder.graph, counter=self.recode_counter
        )
        self.stats = LtncStats()
        #: Observation seam; a profiled simulator hands its clock in so
        #: Algorithm-2 time is charged to the ``refine`` phase.
        self.clock: PhaseClock = NULL_CLOCK
        # Decoded natives as a bitmask, maintained from Tanner events
        # (one int OR per decode); serves the header check.
        self._decoded_mask = 0
        self.decoder.add_listener(_StructureMaintainer(self))
        if detect_redundancy:
            self.decoder.set_drop_policy(self.detector)
        self.innovative_count = 0
        self.redundant_count = 0

    # ------------------------------------------------------------------
    @classmethod
    def as_source(
        cls,
        k: int,
        content: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
        node_id: int = -1,
        **kwargs: object,
    ) -> "LtncNode":
        """A node holding all *k* natives decoded — the content source.

        Recoding at such a node degenerates to classic LT encoding from
        natives (Algorithm 1 only ever picks from ``S[1]``) followed by
        refinement, which balances native usage — exactly the behaviour
        the paper expects of the source.
        """
        m = int(content.shape[1]) if content is not None else None
        node = cls(node_id, k, payload_nbytes=m, rng=rng, **kwargs)  # type: ignore[arg-type]
        for i in range(k):
            payload = content[i] if content is not None else None
            node.receive(EncodedPacket.native(k, i, payload))
        return node

    # ------------------------------------------------------------------
    # Scheme-node protocol
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        """True iff belief propagation recovered all *k* natives."""
        return self.decoder.is_complete()

    @property
    def decoded_count(self) -> int:
        return self.decoder.decoded_count

    def can_send(self) -> bool:
        """The §IV-A aggressiveness trigger.

        Recoding starts once the node holds at least
        ``ceil(aggressiveness * k)`` innovative packets (and always
        requires at least one packet to combine).
        """
        threshold = max(1, math.ceil(self.aggressiveness * self.k))
        return self.innovative_count >= threshold

    def header_is_innovative(self, vector: BitVector) -> bool:
        """Receiver-side binary feedback test on a packet header.

        Reduces the code vector against decoded natives, then applies
        Algorithm 3 when the residual degree is <= 3.  Larger degrees
        are assumed innovative — the paper's design point: high-degree
        packets are rarely redundant and exact checking would cost the
        Gaussian reduction LTNC avoids.
        """
        self.decode_counter.add("table_op")
        # Clear decoded bits in one int AND instead of testing every
        # index; residual bits come out ascending.
        residual = vector._x & ~self._decoded_mask
        if residual.bit_count() > 3:
            return True
        reduced = []
        while residual:
            lsb = residual & -residual
            reduced.append(lsb.bit_length() - 1)
            residual ^= lsb
        return not self.detector.is_redundant_reduced(reduced)

    def receive(self, packet: EncodedPacket) -> bool:
        """Feed a packet to belief propagation; True iff it was useful."""
        outcome = self.decoder.receive(packet)
        if outcome.useful:
            self.innovative_count += 1
        else:
            self.redundant_count += 1
        return outcome.useful

    def feedback_state(self) -> FeedbackState:
        """The leader array a receiver ships for smart construction."""
        return FeedbackState.of(self.components)

    # ------------------------------------------------------------------
    # Recoding (§III-B)
    # ------------------------------------------------------------------
    def make_packet(
        self, receiver_state: FeedbackState | None = None
    ) -> EncodedPacket:
        """Recode one fresh encoded packet.

        With *receiver_state* (full feedback channel), picked degrees 1
        and 2 use the Algorithm-4 smart construction; when it finds no
        innovative packet the node falls back to the standard pipeline
        for the same degree (the transfer may then be aborted by the
        receiver's binary check — the paper's "wasted session").
        """
        if self.degree_index.total_packets() == 0:
            raise RecodingError("no packets available; cannot recode")
        d = self._pick_degree()
        if receiver_state is not None and d <= 2:
            smart = self._smart_packet(d, receiver_state)
            if smart is not None:
                return smart
            self.stats.smart_misses += 1
        return self._standard_packet(d)

    def _pick_degree(self) -> int:
        """Draw Robust Soliton degrees until one passes both bounds."""
        sample = self.distribution.sample
        self.stats.degree_picks += 1
        self.recode_counter.add("rng_draw")
        d = sample(self.rng)
        if not self.oracle.is_unreachable(d):
            self.stats.first_pick_accepted += 1
            return d
        for _ in range(MAX_DEGREE_RETRIES):
            self.stats.degree_retries += 1
            self.recode_counter.add("rng_draw")
            d = sample(self.rng)
            if not self.oracle.is_unreachable(d):
                return d
        # Pathological state (e.g. a single stored packet): clamp.
        self.stats.degree_fallbacks += 1
        d = self.oracle.max_reachable()
        if d < 1:
            raise RecodingError("no reachable degree; state is empty")
        return d

    def _standard_packet(self, d: int) -> EncodedPacket:
        """Build (Algorithm 1) then refine (Algorithm 2) a degree-d packet."""
        built = build_packet(
            d,
            self.decoder.graph,
            self.degree_index,
            self.rng,
            self.recode_counter,
        )
        if not built.support:
            raise RecodingError(f"builder produced an empty packet (d={d})")
        self.stats.builds += 1
        if built.hit:
            self.stats.build_hits += 1
        self.stats.deviation_sum += built.relative_deviation
        support, payload = built.support, built.payload
        if self.refine:
            clock = self.clock
            t0 = clock.start()
            refined = refine_packet(
                support,
                payload,
                self.components,
                self.occurrences,
                self.decoder.graph,
                self.recode_counter,
            )
            clock.stop("refine", t0)
            support, payload = refined.support, refined.payload
            self.stats.substitutions += len(refined.substitutions)
        return self._finish_packet(support, payload)

    def _smart_packet(
        self, d: int, receiver: FeedbackState
    ) -> EncodedPacket | None:
        """Algorithm-4 construction for degrees 1 and 2; None on miss."""
        if d == 1:
            x = find_innovative_native(
                self.components, receiver, self.rng, self.recode_counter
            )
            if x is None:
                return None
            self.stats.smart_degree1 += 1
            payload = xor_payloads(
                None, self.decoder.graph.decoded[x], self.recode_counter
            )
            return self._finish_packet({x}, payload)
        pair = find_innovative_pair(
            self.components, receiver, self.rng, self.recode_counter
        )
        if pair is None:
            return None
        x, y = pair
        self.stats.smart_degree2 += 1
        payload = pair_payload(
            x, y, self.components, self.decoder.graph, self.recode_counter
        )
        return self._finish_packet({x, y}, payload)

    def _finish_packet(
        self, support: set[int], payload: np.ndarray | None
    ) -> EncodedPacket:
        """Record statistics and wrap the support/payload for the wire."""
        self.occurrences.record_sent(support)
        self.stats.packets_sent += 1
        vector = BitVector.from_indices(self.k, support)
        self.recode_counter.add("vec_word_xor", vector.nwords())
        return EncodedPacket(vector, payload)

    # ------------------------------------------------------------------
    def record_telemetry(self, m: MetricsCollector) -> None:
        """Record the §III-B statistics as integers, which merge exactly:
        each :class:`LtncStats` count as an ``ltnc:<field>`` counter, the
        summed build deviation as ``ltnc:deviation_ppm`` and, once the
        node sent :data:`RSD_MIN_PACKETS` packets, its occurrence RSD in
        ppm into the ``ltnc:occurrence_rsd_ppm`` histogram."""
        counts = vars(self.stats).copy()
        m.count("ltnc:deviation_ppm", round(counts.pop("deviation_sum") * PPM))
        for name, value in counts.items():
            m.count(f"ltnc:{name}", value)
        if self.occurrences.packets_sent >= RSD_MIN_PACKETS:
            rsd_ppm = round(self.occurrences.rsd() * PPM)
            m.observe("ltnc:occurrence_rsd_ppm", rsd_ppm, _RSD_PPM_BOUNDARIES)

    def decoded_content(self) -> np.ndarray:
        """The (k, m) native matrix after complete decoding."""
        return self.decoder.recovered_content()

    def check_invariants(self) -> None:
        """Cross-check every structure against the Tanner graph (tests)."""
        graph = self.decoder.graph
        graph.check_invariants()
        self.degree_index.check_invariants()
        self.components.check_invariants()
        self.occurrences.check_invariants()
        for pid, packet in graph.packets.items():
            assert self.degree_index.degree_of(pid) == packet.degree, (
                f"degree index stale for pid {pid}"
            )
            if packet.degree <= 3:
                assert pid in self.support_index.pids(packet.support), (
                    f"support index missing pid {pid}"
                )
            if packet.degree == 2:
                assert self.components.has_edge_pid(pid), (
                    f"edge missing for degree-2 pid {pid}"
                )
        assert self.degree_index.decoded_natives() == set(
            graph.decoded
        ), "decoded natives out of sync"

    def __repr__(self) -> str:
        return (
            f"LtncNode(id={self.node_id}, k={self.k}, "
            f"decoded={self.decoded_count}, "
            f"stored={self.decoder.graph.stored_count}, "
            f"sent={self.stats.packets_sent})"
        )
