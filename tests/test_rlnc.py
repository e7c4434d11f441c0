"""Tests for the RLNC baseline."""

import math

import numpy as np
import pytest

from oracles import ReferenceRlncNode, ReferenceSparseRlncNode
from repro.coding import EncodedPacket, make_content
from repro.errors import DecodingError, DimensionError, RecodingError
from repro.rlnc import RlncNode, default_sparsity
from repro.rlnc.sparse import SparseRlncNode


class TestSparsity:
    def test_paper_formula(self):
        assert default_sparsity(2048) == math.ceil(math.log(2048) + 20)

    def test_monotone_in_k(self):
        assert default_sparsity(4096) >= default_sparsity(512) >= default_sparsity(64)

    def test_small_k_safe(self):
        assert default_sparsity(1) >= 1


class TestNodeBasics:
    def test_validation(self):
        with pytest.raises(DimensionError):
            RlncNode(0, 0)
        with pytest.raises(DimensionError):
            RlncNode(0, 4, sparsity=0)

    def test_cannot_send_before_reception(self):
        node = RlncNode(0, 8)
        assert not node.can_send()
        with pytest.raises(RecodingError):
            node.make_packet()

    def test_receive_tracks_innovation(self):
        node = RlncNode(0, 4)
        assert node.receive(EncodedPacket.native(4, 0))
        assert not node.receive(EncodedPacket.native(4, 0))
        assert node.innovative_count == 1
        assert node.redundant_count == 1

    def test_header_check_matches_receive(self):
        node = RlncNode(0, 4)
        p = EncodedPacket.combine(4, [0, 1])
        assert node.header_is_innovative(p.vector)
        node.receive(p)
        assert not node.header_is_innovative(p.vector)
        # x0^x1 received: x0^x1^x2 is still innovative
        assert node.header_is_innovative(
            EncodedPacket.combine(4, [0, 1, 2]).vector
        )


class TestSourceAndDecode:
    def test_source_is_complete(self):
        content = make_content(8, 4, rng=0)
        src = RlncNode.as_source(8, content)
        assert src.is_complete() and src.can_send()
        assert np.array_equal(src.decoded_content(), content)

    def test_source_symbolic(self):
        src = RlncNode.as_source(8)
        assert src.is_complete()
        with pytest.raises(DecodingError):
            src.decoded_content()

    def test_end_to_end_decode_via_recoded_packets(self):
        k, m = 16, 8
        content = make_content(k, m, rng=1)
        src = RlncNode.as_source(k, content, rng=1)
        sink = RlncNode(1, k, payload_nbytes=m, rng=2)
        guard = 0
        while not sink.is_complete():
            sink.receive(src.make_packet())
            guard += 1
            assert guard < 40 * k, "RLNC sink failed to reach full rank"
        assert np.array_equal(sink.decoded_content(), content)

    def test_multi_hop_recoding_preserves_content(self):
        """Relay chain: source -> relay -> sink, all packets recoded."""
        k, m = 12, 4
        content = make_content(k, m, rng=3)
        src = RlncNode.as_source(k, content, rng=3)
        relay = RlncNode(1, k, payload_nbytes=m, rng=4)
        sink = RlncNode(2, k, payload_nbytes=m, rng=5)
        guard = 0
        while not sink.is_complete():
            relay.receive(src.make_packet())
            if relay.can_send():
                sink.receive(relay.make_packet())
            guard += 1
            assert guard < 100 * k
        assert np.array_equal(sink.decoded_content(), content)


class TestRecoding:
    def test_recode_combines_at_most_sparsity(self):
        k = 32
        src = RlncNode.as_source(k, rng=0, sparsity=5)
        # Degree of a combination of <= 5 natives is <= 5.
        for _ in range(50):
            assert src.make_packet().degree <= 5

    def test_recoded_packet_in_span(self):
        k = 8
        node = RlncNode(0, k, rng=7)
        node.receive(EncodedPacket.combine(k, [0, 1]))
        node.receive(EncodedPacket.combine(k, [1, 2]))
        for _ in range(20):
            pkt = node.make_packet()
            assert not pkt.vector.is_zero()
            assert node.rref.contains(pkt.vector)

    def test_recode_counts_data_ops(self):
        node = RlncNode.as_source(16, rng=0)
        node.make_packet()
        assert node.recode_counter.get("payload_xor") >= 1

    def test_single_packet_forwarding(self):
        node = RlncNode(0, 4, rng=0)
        node.receive(EncodedPacket.combine(4, [0, 1]))
        pkt = node.make_packet()
        assert pkt.support() == {0, 1}

    def test_decode_cost_grows_superlinearly(self):
        """Gauss decoding control cost must scale ~k^2 row ops (Fig. 8b)."""

        def decode_ops(k):
            content = make_content(k, 2, rng=k)
            src = RlncNode.as_source(k, content, rng=k)
            sink = RlncNode(1, k, payload_nbytes=2, rng=k + 1)
            while not sink.is_complete():
                sink.receive(src.make_packet())
            return sink.decode_counter.get("gauss_row_xor")

        small, large = decode_ops(16), decode_ops(64)
        # 4x k should be at least ~8x the row operations (quadratic-ish).
        assert large > 6 * small


# ----------------------------------------------------------------------
# Production bodies against the oracles in tests/oracles.py
# ----------------------------------------------------------------------
#: With k = 2 and sparsity 1 every attempt keeps its one candidate with
#: probability 1/2, so zero draws are retried all the time; this seed's
#: stream also exhausts all 16 attempts (the fallback) within 300 calls.
_FALLBACK_SEED = 30


def _natives(k, m, seed):
    content = make_content(k, m, rng=seed) if m else None
    return [
        EncodedPacket.native(k, i, None if content is None else content[i])
        for i in range(k)
    ]


def _twins(k, m, sparsity, seed, packets):
    """A production node and its oracle, fed the same packets."""
    nodes = (
        RlncNode(0, k, payload_nbytes=m, sparsity=sparsity, rng=seed),
        ReferenceRlncNode(0, k, payload_nbytes=m, sparsity=sparsity, rng=seed),
    )
    for packet in packets:
        for node in nodes:
            node.receive(packet.copy())
    return nodes


def _recode_both(node, oracle, n):
    """*n* recodes from each; returns the per-call ``rng_draw`` charges."""
    draws = []
    for _ in range(n):
        before = node.recode_counter.get("rng_draw")
        got, want = node.make_packet(), oracle.make_packet()
        draws.append(node.recode_counter.get("rng_draw") - before)
        assert got == want
        if want.payload is not None:
            assert got.payload.dtype == want.payload.dtype
    assert node.recode_counter.counts == oracle.recode_counter.counts
    assert node.recoded_count == oracle.recoded_count
    return draws


class TestAgainstOracle:
    @pytest.mark.parametrize("m", [None, 8])
    def test_recode_matches_packet_by_packet_oracle(self, m):
        content = make_content(48, m, rng=3) if m else None
        feed = RlncNode.as_source(48, content, rng=3)
        stream = [feed.make_packet() for _ in range(96)]
        node, oracle = _twins(48, m, None, 4, stream)
        assert node.received == oracle.received
        _recode_both(node, oracle, 200)

    @pytest.mark.parametrize("m", [None, 4])
    def test_zero_retry_and_fallback_match_oracle(self, m):
        node, oracle = _twins(2, m, 1, _FALLBACK_SEED, _natives(2, m, 1))
        draws = _recode_both(node, oracle, 300)
        assert any(2 < d < 32 for d in draws)  # a zero draw was retried
        assert 32 in draws  # all 16 attempts drew zero: the fallback

    @pytest.mark.parametrize("m", [None, 4])
    def test_recoded_packets_own_their_bytes(self, m):
        node, _ = _twins(2, m, 1, _FALLBACK_SEED, _natives(2, m, 1))
        held = [p.copy() for p in node.received]
        for _ in range(300):  # single picks, pairs and the fallback
            packet = node.make_packet()
            packet.vector.flip(0)
            if packet.payload is not None:
                packet.payload ^= 0xFF
        assert node.received == held

    @pytest.mark.parametrize("m", [None, 8])
    @pytest.mark.parametrize("k", [16, 1024])
    @pytest.mark.parametrize(
        "cls, oracle_cls, knob",
        [
            (RlncNode, ReferenceRlncNode, {"sparsity": 5}),
            (SparseRlncNode, ReferenceSparseRlncNode, {"density": 0.2}),
        ],
    )
    def test_source_equals_k_receptions(self, cls, oracle_cls, knob, k, m):
        content = make_content(k, m, rng=k) if m else None
        src = cls.as_source(k, content, rng=9, **knob)
        ref = oracle_cls.as_source(k, content, rng=9, **knob)
        assert type(src) is cls and src.sparsity == ref.sparsity
        assert [v.key() for v in src.rref.basis_rows()] == [
            v.key() for v in ref.rref.basis_rows()
        ]
        assert src.rref.pivot_columns() == ref.rref.pivot_columns()
        assert src.received == ref.received
        assert src.decode_counter.counts == ref.decode_counter.counts
        assert (src.innovative_count, src.redundant_count) == (
            ref.innovative_count,
            ref.redundant_count,
        )
        if content is not None:
            assert np.array_equal(src.decoded_content(), content)
            assert not np.shares_memory(src.received[0].payload, content)
        _recode_both(src, ref, 50)
