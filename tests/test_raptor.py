"""Tests for the Raptor substrate (precoded LT codes, [26])."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packet import make_content
from repro.errors import DimensionError, DistributionError
from repro.lt.decoder import BeliefPropagationDecoder
from repro.lt.raptor import (
    Precode,
    RaptorDistribution,
    RaptorEncoder,
)


def test_distribution_validation():
    with pytest.raises(DistributionError):
        RaptorDistribution(0)
    with pytest.raises(DistributionError):
        RaptorDistribution(16, eps=0)


def test_distribution_is_capped():
    dist = RaptorDistribution(512, eps=0.1)
    assert dist.max_degree() <= dist.d_max + 1
    assert dist.d_max == int(np.ceil(4 * 1.1 / 0.1))
    # No Robust-Soliton spike: the pmf body is monotone decreasing.
    body = dist.pmf[2 : dist.d_max + 1]
    assert np.all(np.diff(body) <= 1e-12)


def test_distribution_tiny_k():
    dist = RaptorDistribution(1)
    assert dist.probability(1) == 1.0


def test_precode_validation():
    with pytest.raises(DimensionError):
        Precode(0)
    with pytest.raises(DimensionError):
        Precode(8, expansion=-0.1)
    with pytest.raises(DimensionError):
        Precode(8, parity_degree=0)


def test_precode_extend_parities():
    k, m = 16, 4
    content = make_content(k, m, rng=0)
    precode = Precode(k, expansion=0.25, parity_degree=3, rng=1)
    block = precode.extend(content)
    assert block.shape == (precode.n_intermediate, m)
    for j, support in enumerate(precode.parity_supports):
        expected = np.zeros(m, dtype=np.uint8)
        for i in support:
            expected ^= content[int(i)]
        assert np.array_equal(block[k + j], expected)


def test_constraints_are_zero_payload_packets():
    precode = Precode(16, expansion=0.25, parity_degree=3, rng=2)
    packets = precode.constraints(payload_nbytes=4)
    assert len(packets) == precode.p
    for j, packet in enumerate(packets):
        assert packet.degree == 4  # parity_degree + the parity symbol
        assert 16 + j in packet.support()
        assert not packet.payload.any()


def test_end_to_end_data_recovery():
    k, m = 64, 8
    content = make_content(k, m, rng=3)
    encoder = RaptorEncoder(k, content, rng=4)
    decoder = encoder.decoder()
    budget = 20 * k
    while not decoder.is_complete() and budget:
        decoder.receive(encoder.next_packet())
        budget -= 1
    assert decoder.is_complete()
    assert np.array_equal(decoder.recovered_content(), content)


def test_recovered_content_requires_completion():
    encoder = RaptorEncoder(16, make_content(16, 4, rng=5), rng=6)
    decoder = encoder.decoder()
    with pytest.raises(DimensionError):
        decoder.recovered_content()


def test_distribution_k_mismatch_rejected():
    with pytest.raises(DimensionError):
        RaptorEncoder(32, distribution=RaptorDistribution(32), rng=7)
        # distribution must cover k + p intermediate symbols, not k


def test_constraints_strictly_help():
    """Pre-seeded parity constraints never delay data completion."""
    k = 48
    encoder = RaptorEncoder(k, rng=8)
    with_constraints = encoder.decoder()
    without = BeliefPropagationDecoder(encoder.n_intermediate)
    done_with = done_without = None
    for received in range(1, 25 * k):
        packet = encoder.next_packet()
        with_constraints.receive(packet.copy())
        without.receive(packet)
        data_without = sum(
            1 for i in range(k) if without.is_decoded(i)
        )
        if done_with is None and with_constraints.is_complete():
            done_with = received
        if done_without is None and data_without == k:
            done_without = received
        if done_with is not None and done_without is not None:
            break
    assert done_with is not None
    assert done_without is None or done_with <= done_without


@settings(max_examples=15, deadline=None)
@given(
    k=st.integers(8, 48),
    expansion=st.floats(0.0, 0.4),
    seed=st.integers(0, 2**16),
)
def test_raptor_roundtrip_property(k, expansion, seed):
    m = 4
    content = make_content(k, m, rng=seed)
    encoder = RaptorEncoder(
        k, content, expansion=expansion, rng=seed + 1
    )
    decoder = encoder.decoder()
    budget = 40 * k
    while not decoder.is_complete() and budget:
        decoder.receive(encoder.next_packet())
        budget -= 1
    assert decoder.is_complete()
    assert np.array_equal(decoder.recovered_content(), content)
