"""Tests for repro.coding.packet."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding import EncodedPacket, content_blocks, make_content, xor_payloads
from repro.costmodel import OpCounter
from repro.errors import DimensionError
from repro.gf2 import BitVector


class TestXorPayloads:
    def test_both_none_counts_but_returns_none(self):
        c = OpCounter()
        assert xor_payloads(None, None, c) is None
        assert c.get("payload_xor") == 1

    def test_one_side_none_copies(self):
        a = np.array([1, 2, 3], dtype=np.uint8)
        out = xor_payloads(None, a)
        assert np.array_equal(out, a)
        out[0] = 99
        assert a[0] == 1  # copy, not alias

    def test_xor_values(self):
        a = np.array([0xFF, 0x00], dtype=np.uint8)
        b = np.array([0x0F, 0xF0], dtype=np.uint8)
        assert np.array_equal(xor_payloads(a, b), [0xF0, 0xF0])

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            xor_payloads(np.zeros(2, np.uint8), np.zeros(3, np.uint8))


class TestEncodedPacket:
    def test_native_constructor(self):
        p = EncodedPacket.native(8, 3)
        assert p.degree == 1
        assert p.support() == {3}
        assert p.k == 8

    def test_combine_with_payloads(self):
        content = make_content(4, 5, rng=0)
        p = EncodedPacket.combine(4, [0, 2], payloads=content)
        assert p.support() == {0, 2}
        assert np.array_equal(p.payload, content[0] ^ content[2])

    def test_combine_symbolic_counts_data_ops(self):
        c = OpCounter()
        EncodedPacket.combine(8, [0, 1, 2], counter=c)
        assert c.get("payload_xor") == 2

    def test_ixor_matches_native_xor(self):
        content = make_content(6, 4, rng=1)
        a = EncodedPacket.combine(6, [0, 1], payloads=content)
        b = EncodedPacket.combine(6, [1, 2], payloads=content)
        a.ixor(b)
        assert a.support() == {0, 2}
        assert np.array_equal(a.payload, content[0] ^ content[2])

    def test_xor_operator_leaves_operands(self):
        a = EncodedPacket.native(4, 0)
        b = EncodedPacket.native(4, 1)
        c = a ^ b
        assert c.support() == {0, 1}
        assert a.support() == {0} and b.support() == {1}

    def test_header_nbytes(self):
        assert EncodedPacket.native(8, 0).header_nbytes() == 1
        assert EncodedPacket.native(9, 0).header_nbytes() == 2
        assert EncodedPacket.native(2048, 0).header_nbytes() == 256

    def test_copy_independent(self):
        content = make_content(4, 3, rng=2)
        a = EncodedPacket.combine(4, [0], payloads=content)
        b = a.copy()
        b.vector.flip(1)
        b.payload[0] ^= 0xFF
        assert a.support() == {0}
        assert np.array_equal(a.payload, content[0])

    def test_equality_semantics(self):
        a = EncodedPacket.native(4, 0)
        b = EncodedPacket.native(4, 0)
        assert a == b
        c = EncodedPacket(BitVector.from_indices(4, [0]), np.zeros(2, np.uint8))
        assert a != c  # symbolic vs payload

    def test_indices_sorted(self):
        p = EncodedPacket.combine(10, [7, 1, 4])
        assert list(p.indices()) == [1, 4, 7]


class TestContentHelpers:
    def test_make_content_shape_and_determinism(self):
        a = make_content(8, 16, rng=42)
        b = make_content(8, 16, rng=42)
        assert a.shape == (8, 16) and a.dtype == np.uint8
        assert np.array_equal(a, b)

    def test_make_content_validates(self):
        with pytest.raises(DimensionError):
            make_content(0, 4)
        with pytest.raises(DimensionError):
            make_content(4, 0)

    def test_content_blocks_round_trip(self):
        data = bytes(range(100))
        blocks = content_blocks(data, 7)
        assert blocks.shape[0] == 7
        assert bytes(blocks.reshape(-1)[:100]) == data

    def test_content_blocks_empty_data(self):
        blocks = content_blocks(b"", 3)
        assert blocks.shape == (3, 1)
        assert not blocks.any()

    def test_content_blocks_validates_k(self):
        with pytest.raises(DimensionError):
            content_blocks(b"abc", 0)


@settings(max_examples=50)
@given(
    st.integers(2, 40).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k - 1), min_size=1, unique=True),
            st.lists(st.integers(0, k - 1), min_size=1, unique=True),
        )
    )
)
def test_packet_xor_support_is_symmetric_difference(case):
    k, ia, ib = case
    content = make_content(k, 8, rng=5)
    a = EncodedPacket.combine(k, ia, payloads=content)
    b = EncodedPacket.combine(k, ib, payloads=content)
    c = a ^ b
    assert c.support() == set(ia) ^ set(ib)
    # Payload equals XOR of the natives in the symmetric difference.
    expect = np.zeros(8, np.uint8)
    for i in set(ia) ^ set(ib):
        expect ^= content[i]
    assert np.array_equal(c.payload, expect)
