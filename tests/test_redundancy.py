"""Tests for Algorithm 3 — redundancy detection (degree <= 3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.components import ConnectedComponents
from repro.core.redundancy import RedundancyDetector
from repro.core.support_index import SupportIndex
from repro.errors import DimensionError
from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import IncrementalRref


def _detector(k):
    components = ConnectedComponents(k)
    index = SupportIndex()
    return RedundancyDetector(components, index), components, index


def is_redundant(det, support):
    """Algorithm 3 on a raw support: strip decoded natives, then classify.

    XOR-ing out a decoded value never changes innovativeness; the node
    strips decoded natives itself before calling the detector.
    """
    reduced = [x for x in support if not det.components.is_decoded(x)]
    return det.is_redundant_reduced(reduced)


def test_empty_support_is_redundant():
    det, _, _ = _detector(4)
    assert det.is_redundant_reduced([])


def test_degree_one():
    det, components, _ = _detector(4)
    assert not det.is_redundant_reduced([2])
    components.mark_decoded(2)
    assert is_redundant(det, [2])  # the raw support strips decoded


def test_degree_two_uses_components():
    det, components, _ = _detector(6)
    assert not det.is_redundant_reduced([0, 1])
    components.add_edge(0, 0, 1)
    assert det.is_redundant_reduced([0, 1])
    # Collision-awareness: connectivity through a chain also counts.
    components.add_edge(1, 1, 2)
    assert det.is_redundant_reduced([0, 2])


def test_degree_three_exact_support():
    det, _, index = _detector(8)
    assert not det.is_redundant_reduced([1, 2, 3])
    index.add(0, {1, 2, 3})
    assert det.is_redundant_reduced([1, 2, 3])
    assert not det.is_redundant_reduced([1, 2, 4])


def test_degree_three_with_decoded_native():
    """Paper terms: isRedundant(x'') and isRedundant(x + x')."""
    det, components, _ = _detector(8)
    components.mark_decoded(3)
    components.add_edge(0, 1, 2)
    # x1 + x2 generable, x3 decoded -> x1 + x2 + x3 redundant.
    assert is_redundant(det, [1, 2, 3])
    # x1 + x4 not generable even though x3 is decoded.
    assert not is_redundant(det, [1, 4, 3])


def test_degree_above_three_raises():
    det, _, _ = _detector(8)
    with pytest.raises(DimensionError):
        det.is_redundant_reduced([0, 1, 2, 3])


def test_drop_policy_counts():
    det, components, _ = _detector(6)
    components.add_edge(0, 0, 1)
    assert det.should_drop({0, 1})
    assert det.drops == 1
    assert not det.should_drop({2, 3})
    assert det.drops == 1


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(3, 12),
    stored=st.lists(
        st.sets(st.integers(0, 11), min_size=2, max_size=3), max_size=10
    ),
    decoded=st.sets(st.integers(0, 11), max_size=4),
    probe=st.sets(st.integers(0, 11), min_size=1, max_size=3),
)
def test_detector_is_sound_against_rank_oracle(k, stored, decoded, probe):
    """A True verdict implies the packet is in the span of held packets.

    Builds the detector's structures exactly as an LTNC node would
    (decoded natives + stored low-degree packets), and checks every
    "redundant" verdict against exact Gaussian elimination.
    """
    decoded = {x % k for x in decoded}
    stored = [
        frozenset(x % k for x in s) - decoded for s in stored
    ]
    stored = [s for s in stored if len(s) >= 2]
    probe = {x % k for x in probe}

    det, components, index = _detector(k)
    rref = IncrementalRref(k)
    for x in decoded:
        components.mark_decoded(x)
        rref.insert(BitVector.from_indices(k, [x]))
    for pid, s in enumerate(stored):
        # Mirror node behaviour: a redundant packet would be dropped at
        # reception, so only innovative ones enter the structures.
        if len(s) <= 3 and det.is_redundant_reduced(s):
            continue
        if len(s) == 2:
            a, b = s
            components.add_edge(pid, a, b)
        index.add(pid, s)
        rref.insert(BitVector.from_indices(k, s))
    reduced = probe - decoded
    if len(reduced) > 3:
        return
    if is_redundant(det, probe):
        vec = BitVector.from_indices(k, probe)
        assert rref.contains(vec), (
            f"detector flagged {sorted(probe)} but it is innovative"
        )
