"""Reference implementations the production paths are tested against.

The simulator has one round loop (the v1 round plan, which draws each
run of senders' targets in one sampler call) and the LTNC recoder one
body per algorithm.  This module keeps the straightforward versions
they replaced, for differential tests only:

* the scalar round loop — one sampler draw per sender, in permutation
  order, one transfer at a time;
* the reference LTNC bodies — Algorithm 1 over fresh frozenset pools
  with per-step charges, the Algorithm-2 candidate walk over
  :func:`buckets_below`, per-native ``record_sent`` charges, unmemoized
  reachability bounds, ``np.searchsorted`` degree sampling and the
  index-by-index header check;
* the reference baseline bodies — WC's ``min`` scan of the whole
  buffer per forward, RLNC's packet-by-packet ``copy``/``ixor``
  recode, and an RLNC source built by *k* native receptions.

:func:`reference_paths` swaps them all in for the duration of a
``with`` block, so anything built inside it — a bare
:class:`~repro.gossip.simulator.EpidemicSimulator` or a preset's
``spec.run`` — runs on the oracle.  The production paths must match it
draw for draw: same results, same ``OpCounter`` totals.

:func:`serial_grid` and :func:`serial_telemetry` are the sweep as a
plain in-process loop — every trial in order, ``spec.run(seed)`` per
trial seed — which the fleet's aggregates and merged telemetry must
match byte for byte, whatever its worker and shard counts.

:func:`assert_conserved` checks the counter conservation laws every
dissemination result obeys.
"""

from __future__ import annotations

import contextlib
import dataclasses

import numpy as np

from repro.baselines.random_recode import RandomRecodeNode
from repro.coding.packet import EncodedPacket, xor_payloads
from repro.core.builder import BuildResult
from repro.core.node import LtncNode
from repro.core.occurrences import OccurrenceTracker
from repro.core.reachability import ReachabilityOracle
from repro.core.refiner import RefineResult, pair_payload
from repro.errors import DimensionError, RecodingError
from repro.gossip.simulator import EpidemicSimulator
from repro.obs.metrics import MetricsCollector
from repro.rlnc.node import RlncNode
from repro.rlnc.sparse import SparseRlncNode
from repro.scenarios.aggregate import ScenarioAggregate
from repro.scenarios.runner import trial_seed
from repro.schemes import registry
from repro.wc.node import WcNode, default_fanout

__all__ = [
    "ReferenceRlncNode",
    "ReferenceSparseRlncNode",
    "ReferenceWcNode",
    "assert_conserved",
    "buckets_below",
    "frequency",
    "reference_build",
    "reference_paths",
    "reference_refine",
    "scalar_step",
    "serial_grid",
    "serial_telemetry",
]


# ----------------------------------------------------------------------
# Algorithm 1 and Algorithm 2
# ----------------------------------------------------------------------
def reference_build(d, graph, index, rng, counter) -> BuildResult:
    """Algorithm 1 over fresh ``list(items_of_degree(i))`` pools."""
    words = (graph.k + 63) >> 6
    support: set[int] = set()
    payload = None
    result = BuildResult(support=support, payload=None, target=d)
    i = min(d, index.max_degree())
    pool: list[int] = []
    pool_class = 0
    while len(support) < d and i > 0:
        if pool_class != i:
            pool = list(index.items_of_degree(i))
            pool_class = i
            counter.add("table_op")
        if not pool:
            i -= 1
            continue
        counter.add("rng_draw")
        j = int(rng.integers(len(pool)))
        pool[j], pool[-1] = pool[-1], pool[j]
        item = pool.pop()
        result.examined += 1
        candidate = {item} if i == 1 else graph.packets[item].support
        counter.add("table_op", len(candidate))
        overlap = len(support & candidate)
        new_degree = len(support) + len(candidate) - 2 * overlap
        if len(support) < new_degree <= d:
            support.symmetric_difference_update(candidate)
            counter.add("vec_word_xor", words)
            other = graph.decoded[item] if i == 1 else graph.packets[item].payload
            payload = xor_payloads(payload, other, counter)
            result.picked.append((i, item))
    result.support = support
    result.payload = payload
    return result


def frequency(occurrences: OccurrenceTracker, x: int) -> int:
    """Occurrences of native *x* in sent packets, one ``table_op``."""
    occurrences.counter.add("table_op")
    return occurrences._counts[x]


def buckets_below(occurrences: OccurrenceTracker, limit: int):
    """Yield ``(count, natives)`` for counts in ``[min, limit)``.

    Buckets come in increasing count order, so the first candidate a
    caller accepts is the global argmin under its extra constraints.
    One ``table_op`` per count visited, empty counts included.
    """
    for count in range(occurrences.min_frequency(), limit):
        bucket = occurrences._buckets.get(count)
        occurrences.counter.add("table_op")
        if bucket:
            yield count, frozenset(bucket)


def _reference_replacement(x, support, components, occurrences, counter, scan_limit):
    """The candidate walk: :func:`buckets_below` one candidate at a time."""
    freq_x = frequency(occurrences, x)
    if freq_x <= occurrences.min_frequency():
        return None, 0
    leader = components.leader(x)
    cc = components.cc
    examined = 0
    for _, bucket in buckets_below(occurrences, freq_x):
        for candidate in bucket:
            examined += 1
            if cc[candidate] == leader and candidate not in support:
                counter.add("cc_lookup", examined)
                return candidate, examined
            if scan_limit is not None and examined >= scan_limit:
                counter.add("cc_lookup", examined)
                return None, examined
    counter.add("cc_lookup", examined)
    return None, examined


def reference_refine(
    support, payload, components, occurrences, graph, counter, scan_limit=None
) -> RefineResult:
    """Algorithm 2 with per-candidate charges."""
    result = RefineResult(support=support, payload=payload)
    for x in sorted(support):
        if x not in support:
            continue
        replacement, examined = _reference_replacement(
            x, support, components, occurrences, counter, scan_limit
        )
        result.candidates_examined += examined
        if replacement is None:
            continue
        pair = pair_payload(x, replacement, components, graph, counter)
        support.discard(x)
        support.add(replacement)
        counter.add("vec_word_xor", (components.k + 63) >> 6)
        result.payload = xor_payloads(result.payload, pair, counter)
        result.substitutions.append((x, replacement))
    return result


# ----------------------------------------------------------------------
# Reference node structures
# ----------------------------------------------------------------------
class _ReferenceOccurrences(OccurrenceTracker):
    """``record_sent`` charging two ``table_op`` per native, as it goes."""

    def record_sent(self, support) -> None:
        for x in support:
            if not 0 <= x < self.k:
                raise DimensionError(f"native {x} outside 0..{self.k - 1}")
            old = self._counts[x]
            self._counts[x] = old + 1
            bucket = self._buckets[old]
            bucket.discard(x)
            if not bucket:
                del self._buckets[old]
            self._buckets.setdefault(old + 1, set()).add(x)
            self.counter.add("table_op", 2)
        self.packets_sent += 1
        while self._min_count not in self._buckets:
            self._min_count += 1


class _ReferenceReachability(ReachabilityOracle):
    """Both bounds evaluated afresh on every query."""

    def is_unreachable(self, d: int) -> bool:
        if d < 1:
            return True
        self.counter.add("table_op")
        if self.index.degree_mass(d) < d:
            return True
        return self.coverage(d) < d


class _SearchsortedDegrees:
    """A degree distribution sampled through ``np.searchsorted``."""

    def __init__(self, distribution) -> None:
        self._distribution = distribution

    def sample(self, rng) -> int:
        cdf = self._distribution._cdf
        return int(np.searchsorted(cdf, rng.random(), side="right"))

    def __getattr__(self, name):
        return getattr(self._distribution, name)


class _ReferenceBodies:
    """Mixin putting the reference bodies under an LTNC-family node."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.distribution = _SearchsortedDegrees(self.distribution)
        self.occurrences = _ReferenceOccurrences(self.k, counter=self.recode_counter)
        self.oracle = _ReferenceReachability(
            self.degree_index, self.decoder.graph, counter=self.recode_counter
        )

    def header_is_innovative(self, vector) -> bool:
        self.decode_counter.add("table_op")
        is_decoded = self.decoder.is_decoded
        reduced = [i for i in vector.indices_list() if not is_decoded(i)]
        if len(reduced) > 3:
            return True
        return not self.detector.is_redundant_reduced(reduced)

    def _standard_packet(self, d: int):
        built = reference_build(
            d, self.decoder.graph, self.degree_index, self.rng, self.recode_counter
        )
        if not built.support:
            raise RecodingError(f"builder produced an empty packet (d={d})")
        self.stats.builds += 1
        if built.hit:
            self.stats.build_hits += 1
        self.stats.deviation_sum += built.relative_deviation
        support, payload = built.support, built.payload
        if self.refine:
            refined = reference_refine(
                support,
                payload,
                self.components,
                self.occurrences,
                self.decoder.graph,
                self.recode_counter,
                scan_limit=self.scan_limit,
            )
            support, payload = refined.support, refined.payload
            self.stats.substitutions += len(refined.substitutions)
        return self._finish_packet(support, payload)


class ReferenceLtncNode(_ReferenceBodies, LtncNode):
    """:class:`LtncNode` on the reference bodies."""


class ReferenceRandomRecodeNode(_ReferenceBodies, RandomRecodeNode):
    """The ``rndlt`` baseline on the reference bodies."""


# ----------------------------------------------------------------------
# The baseline schemes
# ----------------------------------------------------------------------
class ReferenceWcNode(WcNode):
    """:class:`WcNode` picking each forward by a ``min`` scan of the buffer."""

    def receive(self, packet) -> bool:
        if packet.degree != 1:
            raise DimensionError(f"WC received a degree-{packet.degree} packet")
        index = packet.vector.first_index()
        self.decode_counter.add("table_op")
        if index in self.received:
            self.redundant_count += 1
            return False
        payload = packet.payload.copy() if packet.payload is not None else None
        self.received[index] = payload
        self.innovative_count += 1
        self._buffer[index] = 0
        if len(self._buffer) > self.buffer_size:
            self._buffer.popitem(last=False)  # evict the oldest
        return True

    def make_packet(self, receiver_state=None):
        if not self._buffer:
            raise RecodingError("buffer empty; nothing to forward")
        self.recode_counter.add("table_op")
        index = min(
            self._buffer,
            key=lambda i: (self._buffer[i] >= self.fanout, self._buffer[i]),
        )
        self._buffer[index] += 1
        self.recode_counter.add("payload_xor")
        return EncodedPacket.native(self.k, index, self.received[index])


class _ReferenceRlncBodies:
    """Mixin putting the packet-by-packet recode and the k-reception
    source build under an RLNC-family node."""

    @classmethod
    def as_source(cls, k, content=None, rng=None, node_id=-1, **kwargs):
        m = int(content.shape[1]) if content is not None else None
        node = cls(node_id, k, payload_nbytes=m, rng=rng, **kwargs)
        for i in range(k):
            payload = content[i] if content is not None else None
            node.receive(EncodedPacket.native(k, i, payload))
        return node

    def make_packet(self, receiver_state=None):
        if not self.received:
            raise RecodingError("no packets received yet; cannot recode")
        t = min(self.sparsity, len(self.received))
        received = self.received
        counter = self.recode_counter
        for _ in range(16):
            counter.add("rng_draw", 2)
            picks = self.rng.choice(len(received), size=t, replace=False)
            coeffs = self.rng.random(t) < 0.5
            fresh = None
            for j, keep in zip(picks.tolist(), coeffs.tolist()):
                if not keep:
                    continue
                if fresh is None:
                    fresh = received[j].copy()
                    counter.add("payload_xor")
                else:
                    fresh.ixor(received[j], counter)
            if fresh is not None and not fresh.vector.is_zero():
                self.recoded_count += 1
                return fresh
        self.recoded_count += 1
        self.recode_counter.add("payload_xor")
        return self.received[int(self.rng.integers(len(self.received)))].copy()


class ReferenceRlncNode(_ReferenceRlncBodies, RlncNode):
    """:class:`RlncNode` on the reference recode and source build."""


class ReferenceSparseRlncNode(_ReferenceRlncBodies, SparseRlncNode):
    """:class:`SparseRlncNode` on the reference recode and source build."""


def _reference_wc_node(node_id, k, payload_nbytes, n_nodes, rng, **kwargs):
    if kwargs.get("fanout") is None:
        kwargs["fanout"] = default_fanout(n_nodes)
    return ReferenceWcNode(node_id, k, rng=rng, **kwargs)


def _reference_scheme(name: str, cls, node_factory=None):
    def node(node_id, k, payload_nbytes, n_nodes, rng, **kwargs):
        return cls(node_id, k, payload_nbytes=payload_nbytes, rng=rng, **kwargs)

    def source(k, content, rng, **kwargs):
        return cls.as_source(k, content, rng=rng, **kwargs)

    return dataclasses.replace(
        registry.get_scheme(name),
        node_factory=node_factory or node,
        source_factory=source,
    )


# ----------------------------------------------------------------------
# The scalar round loop
# ----------------------------------------------------------------------
def scalar_step(sim: EpidemicSimulator, round_index: int) -> None:
    """One gossip period, one draw and one transfer at a time."""
    if sim.channel.churns(sim._fault_rng, round_index):
        sim._churn(round_index)
    order_rng = sim._order_rng
    n_nodes = sim.n_nodes
    for source in sim.sources:
        for _ in range(sim.source_pushes):
            sim._transfer(source, int(order_rng.integers(n_nodes)), round_index)
    for sender_id in order_rng.permutation(n_nodes).tolist():
        sender = sim.nodes[sender_id]
        if not sender.can_send():
            continue
        (target,) = sim.sampler.peers(sender_id, 1, round_index)
        sim._transfer(sender, target, round_index)
    sim.result.record_round(round_index)


@contextlib.contextmanager
def reference_paths():
    """Run the scalar loop and the reference scheme bodies inside the block.

    Swaps ``EpidemicSimulator._step`` and the ``ltnc``, ``rndlt``,
    ``wc``, ``rlnc`` and ``sparse_rlnc`` registry entries (in place, so
    registration order is kept), and restores both on exit.
    """
    oracles = {
        "ltnc": _reference_scheme("ltnc", ReferenceLtncNode),
        "rndlt": _reference_scheme("rndlt", ReferenceRandomRecodeNode),
        "wc": _reference_scheme("wc", ReferenceWcNode, _reference_wc_node),
        "rlnc": _reference_scheme("rlnc", ReferenceRlncNode),
        "sparse_rlnc": _reference_scheme("sparse_rlnc", ReferenceSparseRlncNode),
    }
    saved_step = EpidemicSimulator._step
    saved = {name: registry.get_scheme(name) for name in oracles}
    EpidemicSimulator._step = scalar_step
    registry._REGISTRY.update(oracles)
    try:
        yield
    finally:
        EpidemicSimulator._step = saved_step
        registry._REGISTRY.update(saved)


# ----------------------------------------------------------------------
# The sweep as a plain loop
# ----------------------------------------------------------------------
def serial_grid(specs, n_trials: int, master_seed: int) -> dict:
    """``{name: ScenarioAggregate}`` of every trial, run in order here."""
    aggregates = {}
    for spec in specs:
        aggregate = ScenarioAggregate(spec, master_seed)
        for i in range(n_trials):
            seed = trial_seed(master_seed, spec.name, i)
            aggregate.add_record(
                {"trial_index": i, "seed": seed, **spec.run(seed).key_metrics()}
            )
        aggregates[spec.name] = aggregate
    return aggregates


def serial_telemetry(specs, n_trials: int, master_seed: int) -> dict:
    """``{name: merged telemetry section}`` of the same loop."""
    sections = {}
    for spec in specs:
        merged = MetricsCollector()
        for i in range(n_trials):
            collector = MetricsCollector()
            spec.build(
                trial_seed(master_seed, spec.name, i), metrics=collector
            ).run()
            merged.merge_snapshot(collector.snapshot())
        sections[spec.name] = {"n_trials": n_trials, **merged.snapshot()}
    return sections


# ----------------------------------------------------------------------
# Conservation laws
# ----------------------------------------------------------------------
def assert_conserved(result) -> None:
    """Assert the counter identities of one dissemination result."""
    assert result.sessions == result.aborted + result.data_transfers
    assert result.recoded_packets == result.sessions
    assert result.data_transfers == (
        result.useful_transfers
        + result.redundant_transfers
        + result.lost_transfers
    )
    assert (
        result.duplicated_transfers
        <= result.data_transfers - result.lost_transfers
    )
    for node_id in result.completion_rounds:
        assert result.data_until_complete[node_id] >= result.k, node_id
    assert all(r <= result.rounds for r in result.completion_rounds.values())
