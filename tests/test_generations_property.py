"""Property-based tests for generation striping (satellite of repro.content).

Two contracts the catalogue subsystem leans on:

* a :class:`~repro.generations.manager.GenerationPacket` round-trips
  through :meth:`copy` — equal value, independent storage — for
  arbitrary (generation, degree, payload) combinations;
* :func:`~repro.generations.manager.generation_bounds` (and therefore
  :class:`GenerationSource` / :class:`GenerationNode`, which build on
  it) covers every native exactly once for arbitrary ``(k, g)``:
  contiguous, in order, each generation at most ``g`` wide, the last
  absorbing the remainder.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packet import EncodedPacket
from repro.generations import (
    GenerationPacket,
    GenerationSource,
    generation_bounds,
)

_k = st.integers(min_value=1, max_value=512)
_g = st.integers(min_value=1, max_value=600)


@st.composite
def generation_packets(draw):
    k = draw(st.integers(min_value=1, max_value=64))
    degree = draw(st.integers(min_value=1, max_value=k))
    indices = draw(
        st.lists(
            st.integers(min_value=0, max_value=k - 1),
            min_size=degree,
            max_size=degree,
            unique=True,
        )
    )
    with_payload = draw(st.booleans())
    payloads = None
    if with_payload:
        m = draw(st.integers(min_value=1, max_value=8))
        seed = draw(st.integers(min_value=0, max_value=2**16))
        payloads = np.random.default_rng(seed).integers(
            0, 256, size=(k, m), dtype=np.uint8
        )
    packet = EncodedPacket.combine(k, indices, payloads)
    generation = draw(st.integers(min_value=0, max_value=1000))
    return GenerationPacket(generation, packet)


@settings(max_examples=80, deadline=None)
@given(generation_packets())
def test_generation_packet_roundtrips_through_copy(gp):
    clone = gp.copy()
    assert clone == gp
    assert clone.generation == gp.generation
    assert clone.degree == gp.degree
    assert clone.packet.support() == gp.packet.support()
    # Independent storage: mutating the copy leaves the original alone.
    assert clone.packet.vector is not gp.packet.vector
    before = gp.packet.support()
    clone.packet.vector.flip(int(next(iter(before))))
    assert gp.packet.support() == before
    if gp.packet.payload is not None:
        assert clone.packet.payload is not gp.packet.payload
        np.testing.assert_array_equal(clone.packet.payload, gp.packet.payload)


@settings(max_examples=200, deadline=None)
@given(_k, _g)
def test_generation_bounds_cover_every_native_exactly_once(k, g):
    bounds = generation_bounds(k, g)
    # Contiguous, in order, sized within (0, g].
    cursor = 0
    for start, size in bounds:
        assert start == cursor
        assert 0 < size <= g
        cursor += size
    assert cursor == k
    # Exactly-once coverage of 0..k-1.
    covered = [i for start, size in bounds for i in range(start, start + size)]
    assert covered == list(range(k))
    # Only the last generation may be short.
    assert all(size == g for _, size in bounds[:-1])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=1, max_value=80),
)
def test_generation_source_partitions_match_bounds(k, g):
    source = GenerationSource(k, g, rng=0)
    assert source.bounds == generation_bounds(k, g)
    assert len(source.sources) == len(source.bounds)
    # Each sub-source codes over exactly its generation's width.
    for (_, size), sub in zip(source.bounds, source.sources):
        assert sub.k == size
