"""Tests for the belief-propagation decoder front-end."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import EncodedPacket, make_content
from repro.errors import DecodingError
from repro.gf2 import IncrementalRref
from repro.lt import BeliefPropagationDecoder, LTEncoder, RobustSoliton
from repro.rng import make_rng


class TestReceive:
    def test_native_packet_decodes(self):
        dec = BeliefPropagationDecoder(4)
        out = dec.receive(EncodedPacket.native(4, 1, np.array([7], np.uint8)))
        assert out.decoded == [1]
        assert out.useful
        assert dec.is_decoded(1)

    def test_redundant_native_flagged(self):
        dec = BeliefPropagationDecoder(4)
        pkt = EncodedPacket.native(4, 1)
        dec.receive(pkt)
        out = dec.receive(pkt.copy())
        assert out.redundant and not out.useful
        assert dec.redundant_received == 1

    def test_reduction_against_decoded(self):
        content = make_content(4, 3, rng=0)
        dec = BeliefPropagationDecoder(4)
        dec.receive(EncodedPacket.native(4, 0, content[0]))
        # x0 ^ x1 arrives; should decode x1 directly.
        out = dec.receive(EncodedPacket.combine(4, [0, 1], payloads=content))
        assert out.decoded == [1]
        assert np.array_equal(dec.native_payload(1), content[1])

    def test_wrong_k_rejected(self):
        dec = BeliefPropagationDecoder(4)
        with pytest.raises(DecodingError):
            dec.receive(EncodedPacket.native(5, 0))

    def test_native_payload_before_decode_raises(self):
        dec = BeliefPropagationDecoder(4)
        with pytest.raises(DecodingError):
            dec.native_payload(0)

    def test_recovered_content_requires_completion(self):
        dec = BeliefPropagationDecoder(2)
        dec.receive(EncodedPacket.native(2, 0, np.array([1], np.uint8)))
        with pytest.raises(DecodingError):
            dec.recovered_content()

    def test_recovered_content_symbolic_raises(self):
        dec = BeliefPropagationDecoder(2)
        dec.receive(EncodedPacket.native(2, 0))
        dec.receive(EncodedPacket.native(2, 1))
        assert dec.is_complete()
        with pytest.raises(DecodingError):
            dec.recovered_content()


class TestEndToEnd:
    @pytest.mark.parametrize("k", [8, 32, 128])
    def test_lt_stream_decodes_and_matches(self, k):
        content = make_content(k, 16, rng=k)
        enc = LTEncoder(k, RobustSoliton(k), payloads=content, rng=k)
        dec = BeliefPropagationDecoder(k)
        budget = 60 * k  # extremely generous; failure means a real bug
        while not dec.is_complete() and budget:
            dec.receive(enc.next_packet())
            budget -= 1
        assert dec.is_complete()
        assert np.array_equal(dec.recovered_content(), content)

    def test_decoded_count_monotonic(self):
        k = 32
        enc = LTEncoder(k, RobustSoliton(k), rng=3)
        dec = BeliefPropagationDecoder(k)
        last = 0
        for _ in range(40 * k):
            dec.receive(enc.next_packet())
            assert dec.decoded_count >= last
            last = dec.decoded_count
            if dec.is_complete():
                break
        assert dec.is_complete()

    def test_bp_overhead_shrinks_with_k(self):
        """LT reception overhead epsilon decreases with code length.

        This is the root cause of Fig. 7c's decreasing overhead curve.
        Averaged over seeds to keep the test robust.
        """

        def mean_overhead(k, runs=3):
            total = 0.0
            for seed in range(runs):
                enc = LTEncoder(k, RobustSoliton(k), rng=seed)
                dec = BeliefPropagationDecoder(k)
                n = 0
                while not dec.is_complete():
                    dec.receive(enc.next_packet())
                    n += 1
                total += n / k - 1
            return total / runs

        assert mean_overhead(256) < mean_overhead(16)


class TestAgainstGaussOracle:
    """BP can only ever decode what the span allows; never more."""

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_bp_decodes_subset_of_span(self, seed):
        k = 16
        rng = make_rng(seed)
        dec = BeliefPropagationDecoder(k)
        oracle = IncrementalRref(k)
        enc = LTEncoder(k, RobustSoliton(k), rng=rng)
        for _ in range(20):
            pkt = enc.next_packet()
            dec.receive(pkt)
            oracle.insert(pkt.vector)
        # Every BP-decoded native must be Gauss-decodable: the unit
        # vector lies in the span of everything received.
        from repro.gf2 import BitVector

        for idx in dec.graph.decoded:
            unit = BitVector.from_indices(k, [idx])
            assert oracle.contains(unit)

    def test_bp_completion_implies_full_rank(self):
        k = 24
        enc = LTEncoder(k, RobustSoliton(k), rng=1)
        dec = BeliefPropagationDecoder(k)
        oracle = IncrementalRref(k)
        while not dec.is_complete():
            pkt = enc.next_packet()
            dec.receive(pkt)
            oracle.insert(pkt.vector)
        assert oracle.is_full_rank()


class TestEncoder:
    def test_encoder_k_mismatch(self):
        from repro.errors import DimensionError

        with pytest.raises(DimensionError):
            LTEncoder(8, RobustSoliton(9))

    def test_encoder_payload_shape_checked(self):
        from repro.errors import DimensionError

        with pytest.raises(DimensionError):
            LTEncoder(8, RobustSoliton(8), payloads=np.zeros((4, 2), np.uint8))

    def test_degrees_follow_distribution(self):
        k = 64
        dist = RobustSoliton(k)
        enc = LTEncoder(k, dist, rng=5)
        from repro.lt.distributions import empirical_degrees, total_variation

        degrees = [enc.next_packet().degree for _ in range(20_000)]
        assert total_variation(empirical_degrees(degrees, k), dist.pmf) < 0.03

    def test_balanced_mode_flattens_usage(self):
        k = 64
        uniform = LTEncoder(k, RobustSoliton(k), rng=2, balanced=False)
        balanced = LTEncoder(k, RobustSoliton(k), rng=2, balanced=True)
        for _ in range(2000):
            uniform.next_packet()
            balanced.next_packet()
        assert balanced.native_degree_rsd() < uniform.native_degree_rsd()

    def test_rsd_zero_before_emission(self):
        enc = LTEncoder(8, RobustSoliton(8), rng=0)
        assert enc.native_degree_rsd() == 0.0

    def test_packets_helper(self):
        enc = LTEncoder(8, RobustSoliton(8), rng=0)
        assert len(enc.packets(5)) == 5
        assert enc.emitted == 5
