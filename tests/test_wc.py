"""Tests for the without-coding baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import ReferenceWcNode
from repro.coding import EncodedPacket, make_content
from repro.errors import DecodingError, DimensionError, RecodingError
from repro.wc import WcNode, default_fanout


class TestFanout:
    def test_ln_n(self):
        assert default_fanout(1000) == 7  # ceil(ln 1000) = 7
        assert default_fanout(2) == 1

    def test_small_n(self):
        assert default_fanout(1) >= 1


class TestReceive:
    def test_innovative_then_duplicate(self):
        node = WcNode(0, 4)
        p = EncodedPacket.native(4, 2, np.array([9], np.uint8))
        assert node.receive(p)
        assert not node.receive(p.copy())
        assert node.innovative_count == 1 and node.redundant_count == 1

    def test_encoded_packet_rejected(self):
        node = WcNode(0, 4)
        with pytest.raises(DimensionError):
            node.receive(EncodedPacket.combine(4, [0, 1]))

    def test_header_check(self):
        node = WcNode(0, 4)
        node.receive(EncodedPacket.native(4, 1))
        assert not node.header_is_innovative(EncodedPacket.native(4, 1).vector)
        assert node.header_is_innovative(EncodedPacket.native(4, 2).vector)

    def test_header_check_rejects_encoded(self):
        node = WcNode(0, 4)
        with pytest.raises(DimensionError):
            node.header_is_innovative(EncodedPacket.combine(4, [0, 1]).vector)

    def test_completion(self):
        node = WcNode(0, 3)
        for i in range(3):
            assert not node.is_complete()
            node.receive(EncodedPacket.native(3, i))
        assert node.is_complete()


class TestForwarding:
    def test_cannot_send_empty(self):
        node = WcNode(0, 4)
        assert not node.can_send()
        with pytest.raises(RecodingError):
            node.make_packet()

    def test_least_sent_priority(self):
        node = WcNode(0, 4, fanout=10)
        node.receive(EncodedPacket.native(4, 0))
        node.receive(EncodedPacket.native(4, 1))
        sent = [int(node.make_packet().vector.first_index()) for _ in range(4)]
        # Alternates between the two buffered packets (0 and 1).
        assert sorted(sent) == [0, 0, 1, 1]

    def test_fanout_deprioritises_saturated(self):
        node = WcNode(0, 4, fanout=1)
        node.receive(EncodedPacket.native(4, 0))
        node.make_packet()  # index 0 reaches fanout
        node.receive(EncodedPacket.native(4, 1))
        assert int(node.make_packet().vector.first_index()) == 1

    def test_buffer_eviction_stops_forwarding_not_storage(self):
        node = WcNode(0, 8, buffer_size=2)
        for i in range(4):
            node.receive(EncodedPacket.native(8, i))
        assert len(node.buffered_indices()) == 2
        assert node.buffered_indices() == [2, 3]  # oldest evicted
        assert node.innovative_count == 4  # storage unaffected

    def test_fanout_never_changes_a_pick(self):
        def picks(fanout):
            node = WcNode(0, 16, buffer_size=6, fanout=fanout)
            rng = np.random.default_rng(3)
            out = []
            for _ in range(200):
                if node.can_send() and rng.random() < 0.7:
                    out.append(node.make_packet().vector.first_index())
                else:
                    node.receive(EncodedPacket.native(16, int(rng.integers(16))))
            return out

        assert len({tuple(picks(f)) for f in (1, 2, 4, 7, 50, 10**6)}) == 1

    def test_buffer_validation(self):
        with pytest.raises(DimensionError):
            WcNode(0, 4, buffer_size=0)
        with pytest.raises(DimensionError):
            WcNode(0, 4, fanout=0)


class TestSourceAndContent:
    def test_source_covers_all_natives(self):
        content = make_content(6, 3, rng=0)
        src = WcNode.as_source(6, content)
        assert src.is_complete()
        seen = set()
        for _ in range(6):
            seen.add(int(src.make_packet().vector.first_index()))
        assert seen == set(range(6))  # least-sent rotation covers everything

    def test_decoded_content_round_trip(self):
        content = make_content(5, 4, rng=2)
        src = WcNode.as_source(5, content)
        sink = WcNode(1, 5)
        for _ in range(5):
            sink.receive(src.make_packet())
        assert sink.is_complete()
        assert np.array_equal(sink.decoded_content(), content)

    def test_decoded_content_requires_completion(self):
        node = WcNode(0, 3)
        node.receive(EncodedPacket.native(3, 0, np.zeros(2, np.uint8)))
        with pytest.raises(DecodingError):
            node.decoded_content()

    def test_decoded_content_symbolic_raises(self):
        node = WcNode(0, 2)
        node.receive(EncodedPacket.native(2, 0))
        node.receive(EncodedPacket.native(2, 1))
        with pytest.raises(DecodingError):
            node.decoded_content()


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(1, 24),
    buffer_size=st.integers(1, 6),
    fanout=st.integers(1, 6),
    p_receive=st.sampled_from([0.2, 0.5, 0.8]),
    seed=st.integers(0, 2**32 - 1),
    n_ops=st.integers(1, 150),
)
def test_forwarding_matches_min_scan_oracle(
    k, buffer_size, fanout, p_receive, seed, n_ops
):
    """Random receive / forward / eviction sequences pick as the oracle."""
    rng = np.random.default_rng(seed)
    node = WcNode(0, k, buffer_size=buffer_size, fanout=fanout)
    oracle = ReferenceWcNode(0, k, buffer_size=buffer_size, fanout=fanout)
    for _ in range(n_ops):
        if not oracle.can_send() or rng.random() < p_receive:
            packet = EncodedPacket.native(k, int(rng.integers(k)))
            assert node.receive(packet) == oracle.receive(packet)
        else:
            assert node.make_packet().vector == oracle.make_packet().vector
        assert node.can_send() == oracle.can_send()
        assert node.buffered_indices() == oracle.buffered_indices()
    assert node.recode_counter.counts == oracle.recode_counter.counts
    assert node.decode_counter.counts == oracle.decode_counter.counts
    assert (node.innovative_count, node.redundant_count) == (
        oracle.innovative_count,
        oracle.redundant_count,
    )
