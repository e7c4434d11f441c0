"""Tests for generation-based chunking of LTNC."""

import numpy as np
import pytest

from repro.coding.packet import make_content
from repro.errors import DimensionError, RecodingError
from repro.generations import (
    GenerationNode,
    GenerationSource,
    generation_bounds,
)


def test_generation_bounds():
    assert generation_bounds(10, 4) == [(0, 4), (4, 4), (8, 2)]
    assert generation_bounds(8, 4) == [(0, 4), (4, 4)]
    assert generation_bounds(3, 10) == [(0, 3)]
    with pytest.raises(DimensionError):
        generation_bounds(0, 4)
    with pytest.raises(DimensionError):
        generation_bounds(8, 0)


def test_source_schedules():
    random_src = GenerationSource(32, 8, rng=1)
    gens = {random_src.next_packet().generation for _ in range(40)}
    assert gens == {0, 1, 2, 3}


def test_lazy_subnode_creation():
    node = GenerationNode(0, 32, 8, rng=2)
    assert node.generations_seen() == []
    src = GenerationSource(32, 8, rng=3)
    packet = src.next_packet()
    node.receive(packet)  # one generation only
    assert node.generations_seen() == [packet.generation]
    assert not node.is_complete()
    with pytest.raises(DimensionError):
        node.subnode(4)


def test_end_to_end_content_recovery():
    k, g, m = 24, 8, 16
    content = make_content(k, m, rng=4)
    src = GenerationSource(k, g, content=content, rng=5)
    node = GenerationNode(0, k, g, payload_nbytes=m, rng=6)
    guard = 60 * k
    while not node.is_complete() and guard:
        node.receive(src.next_packet())
        guard -= 1
    assert node.is_complete()
    assert np.array_equal(node.decoded_content(), content)


def test_uneven_last_generation_roundtrip():
    k, g, m = 21, 8, 8  # generations of 8, 8, 5
    content = make_content(k, m, rng=7)
    src = GenerationSource(k, g, content=content, rng=8)
    node = GenerationNode(0, k, g, payload_nbytes=m, rng=9)
    guard = 80 * k
    while not node.is_complete() and guard:
        node.receive(src.next_packet())
        guard -= 1
    assert node.is_complete()
    assert np.array_equal(node.decoded_content(), content)


def test_recoding_chain_across_generations():
    """source -> relay -> sink, all coding confined per generation."""
    k, g, m = 16, 8, 8
    content = make_content(k, m, rng=10)
    src = GenerationSource(k, g, content=content, rng=11)
    relay = GenerationNode(1, k, g, payload_nbytes=m, rng=12,
                           aggressiveness=0.1)
    sink = GenerationNode(2, k, g, payload_nbytes=m, rng=13)
    guard = 200 * k
    while not sink.is_complete() and guard:
        relay.receive(src.next_packet())
        if relay.can_send():
            sink.receive(relay.make_packet())
        guard -= 1
    assert sink.is_complete()
    assert np.array_equal(sink.decoded_content(), content)


def test_make_packet_requires_ready_generation():
    node = GenerationNode(0, 16, 8, rng=14)
    assert not node.can_send()
    with pytest.raises(RecodingError):
        node.make_packet()


def test_decoded_content_requires_completion():
    node = GenerationNode(0, 16, 8, rng=15)
    with pytest.raises(RecodingError):
        node.decoded_content()


def test_header_check_routes_to_generation():
    k, g = 16, 8
    src = GenerationSource(k, g, rng=16)
    node = GenerationNode(0, k, g, rng=17)
    gp = src.next_packet()
    assert node.header_is_innovative(gp)
    node.receive(gp)
    # The very same packet is now redundant for its generation (its
    # support is either decoded or stored verbatim) when low-degree.
    if gp.degree <= 3:
        assert not node.header_is_innovative(gp)


def test_ops_merged_across_generations():
    k, g = 24, 8
    src = GenerationSource(k, g, rng=18)
    node = GenerationNode(0, k, g, rng=19)
    for _ in range(3 * k):
        node.receive(src.next_packet())
    ops = node.total_ops("decode")
    assert ops.get("table_op", 0) > 0
