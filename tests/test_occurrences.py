"""Unit + property tests for occurrence tracking (core/occurrences.py)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.occurrences import OccurrenceTracker
from repro.errors import DimensionError

from oracles import buckets_below


def test_initial_state():
    occ = OccurrenceTracker(4)
    assert occ.counts[0] == 0
    assert occ.min_frequency() == 0
    assert occ.rsd() == 0.0
    assert occ.packets_sent == 0
    occ.check_invariants()


def test_record_sent_increments():
    occ = OccurrenceTracker(6)
    occ.record_sent({0, 2, 4})
    assert occ.counts[0] == 1
    assert occ.counts[1] == 0
    assert occ.packets_sent == 1
    occ.check_invariants()


def test_record_out_of_range():
    occ = OccurrenceTracker(4)
    with pytest.raises(DimensionError):
        occ.record_sent({4})


def test_min_frequency_tracks_global_min():
    occ = OccurrenceTracker(3)
    occ.record_sent({0})
    occ.record_sent({1})
    assert occ.min_frequency() == 0  # native 2 never sent
    occ.record_sent({2})
    assert occ.min_frequency() == 1
    occ.check_invariants()


def test_buckets_below_ascending_order():
    occ = OccurrenceTracker(4)
    occ.record_sent({0})
    occ.record_sent({0})
    occ.record_sent({1})
    # counts: x0=2, x1=1, x2=0, x3=0
    got = list(buckets_below(occ, 2))
    assert [count for count, _ in got] == [0, 1]
    assert got[0][1] == {2, 3}
    assert got[1][1] == {1}


def test_buckets_below_empty_when_limit_at_min():
    occ = OccurrenceTracker(4)
    assert list(buckets_below(occ, 0)) == []


def test_rsd_matches_numpy():
    occ = OccurrenceTracker(4)
    for support in ({0}, {0}, {0, 1}, {2}):
        occ.record_sent(support)
    import numpy as np

    counts = np.array([3, 1, 1, 0])
    assert occ.rsd() == pytest.approx(counts.std() / counts.mean())


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(1, 12),
    sends=st.lists(
        st.sets(st.integers(0, 11), min_size=1, max_size=6), max_size=30
    ),
)
def test_buckets_always_mirror_counts(k, sends):
    occ = OccurrenceTracker(k)
    for support in sends:
        occ.record_sent({x % k for x in support})
    occ.check_invariants()
    # buckets_below enumerates exactly the natives strictly below limit.
    counts = occ.counts
    limit = counts[0] + 1
    seen = set()
    for count, bucket in buckets_below(occ, limit):
        for x in bucket:
            assert counts[x] == count
            seen.add(x)
    expected = {x for x in range(k) if counts[x] < limit}
    assert seen == expected
