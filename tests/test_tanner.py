"""Tests for the Tanner graph structure and peeling mechanics."""

import numpy as np
import pytest

from repro.costmodel import OpCounter
from repro.errors import DimensionError
from repro.lt.tanner import DropPolicy, TannerGraph, TannerListener


class RecordingListener(TannerListener):
    """Captures the event stream for assertions."""

    def __init__(self):
        self.events = []

    def on_packet_stored(self, pid, support):
        self.events.append(("stored", pid, frozenset(support)))

    def on_packet_degree_changed(self, pid, support):
        self.events.append(("degree", pid, frozenset(support)))

    def on_packet_removed(self, pid, reason):
        self.events.append(("removed", pid, reason))

    def on_native_decoded(self, index):
        self.events.append(("decoded", index))


class DropPairs(DropPolicy):
    """Drops every degree-2 packet — for testing the policy hook."""

    def should_drop(self, support):
        return len(support) == 2


def payload(*vals):
    return np.array(vals, dtype=np.uint8)


class TestInsertion:
    def test_degree_one_decodes_immediately(self):
        g = TannerGraph(4)
        pid, decoded = g.insert({2}, payload(9))
        assert pid is None and decoded == [2]
        assert g.is_decoded(2)
        assert np.array_equal(g.native_payload(2), payload(9))

    def test_degree_two_is_stored(self):
        g = TannerGraph(4)
        pid, decoded = g.insert({0, 1}, None)
        assert pid is not None and decoded == []
        assert g.packets[pid].support == {0, 1}
        assert g.stored_count == 1

    def test_empty_support_is_noop(self):
        g = TannerGraph(4)
        assert g.insert(set(), None) == (None, [])

    def test_out_of_range_native_rejected(self):
        g = TannerGraph(4)
        with pytest.raises(DimensionError):
            g.insert({4}, None)

    def test_non_reduced_insert_rejected(self):
        g = TannerGraph(4)
        g.insert({1}, None)
        with pytest.raises(DimensionError):
            g.insert({1, 2}, None)

    def test_k_validation(self):
        with pytest.raises(DimensionError):
            TannerGraph(0)


class TestPeeling:
    def test_cascade_through_chain(self):
        # y1 = x0^x1, y2 = x1^x2; decoding x0 must cascade to x1 and x2.
        g = TannerGraph(3)
        g.insert({0, 1}, payload(3))  # x0 ^ x1 = 3
        g.insert({1, 2}, payload(6))  # x1 ^ x2 = 6
        _, decoded = g.insert({0}, payload(1))  # x0 = 1
        assert set(decoded) == {0, 1, 2}
        assert np.array_equal(g.native_payload(1), payload(2))  # 3 ^ 1
        assert np.array_equal(g.native_payload(2), payload(4))  # 6 ^ 2
        assert g.stored_count == 0
        assert g.is_complete()

    def test_degree_three_reduces_stepwise(self):
        g = TannerGraph(4)
        pid, _ = g.insert({0, 1, 2}, None)
        g.insert({0}, None)
        assert g.packets[pid].support == {1, 2}
        g.insert({1}, None)
        assert g.is_decoded(2)
        assert g.stored_count == 0

    def test_duplicate_packet_empties(self):
        g = TannerGraph(4)
        g.insert({0, 1}, None)
        pid2, _ = g.insert({0, 1}, None)  # same combination again
        _, decoded = g.insert({0}, None)
        # First packet decodes x1; second reduces to degree 0 (dependent).
        assert set(decoded) == {0, 1}
        assert g.stored_count == 0

    def test_invariants_after_random_workload(self):
        rng = np.random.default_rng(0)
        g = TannerGraph(12)
        for _ in range(60):
            size = int(rng.integers(1, 5))
            support = set(
                int(i) for i in rng.choice(12, size=size, replace=False)
            )
            support = {i for i in support if not g.is_decoded(i)}
            if support:
                g.insert(support, None)
            g.check_invariants()


class TestEvents:
    def test_event_stream_for_cascade(self):
        g = TannerGraph(3)
        listener = RecordingListener()
        g.add_listener(listener)
        pid, _ = g.insert({0, 1}, None)
        g.insert({0}, None)
        kinds = [e[0] for e in listener.events]
        assert kinds == ["stored", "decoded", "removed", "decoded"]
        assert ("removed", pid, "decoded") in listener.events

    def test_degree_change_event(self):
        g = TannerGraph(4)
        listener = RecordingListener()
        g.add_listener(listener)
        pid, _ = g.insert({0, 1, 2}, None)
        g.insert({0}, None)
        assert ("degree", pid, frozenset({1, 2})) in listener.events

    def test_duplicate_pair_both_consumed(self):
        # Two copies of x0^x1: peeling x0 reduces both to degree 1, each
        # is removed as "decoded"; x1 is decoded exactly once.  (A stored
        # packet can never reach degree 0 through peeling, since storage
        # starts at degree >= 2 and edges peel one at a time.)
        g = TannerGraph(4)
        listener = RecordingListener()
        g.add_listener(listener)
        pid1, _ = g.insert({0, 1}, None)
        pid2, _ = g.insert({0, 1}, None)
        g.insert({0}, None)
        assert ("removed", pid1, "decoded") in listener.events
        assert ("removed", pid2, "decoded") in listener.events
        assert listener.events.count(("decoded", 1)) == 1


class TestDropPolicy:
    def test_policy_drops_on_insert(self):
        g = TannerGraph(4)
        g.drop_policy = DropPairs()
        pid, decoded = g.insert({0, 1}, None)
        assert pid is None and decoded == []
        assert g.stored_count == 0

    def test_policy_drops_on_degree_fall(self):
        g = TannerGraph(4)
        listener = RecordingListener()
        g.add_listener(listener)
        g.drop_policy = DropPairs()
        pid, _ = g.insert({0, 1, 2}, None)  # degree 3: kept
        assert pid is not None
        g.insert({0}, None)  # reduces pid to degree 2 -> dropped
        assert g.stored_count == 0
        assert ("removed", pid, "redundant") in listener.events

    def test_policy_not_applied_above_three(self):
        g = TannerGraph(8)

        class DropAll(DropPolicy):
            def should_drop(self, support):
                return True

        g.drop_policy = DropAll()
        pid, _ = g.insert({0, 1, 2, 3}, None)  # degree 4: policy not asked
        assert pid is not None


class TestAccounting:
    def test_bp_edges_counted(self):
        counter = OpCounter()
        g = TannerGraph(4, counter=counter)
        g.insert({0, 1}, None)
        g.insert({0}, None)
        assert counter.get("bp_edge") == 1
        assert counter.get("payload_xor") >= 1

    def test_remove_packet_unindexes(self):
        g = TannerGraph(4)
        pid, _ = g.insert({0, 1, 2}, None)
        g.remove_packet(pid)
        assert g.stored_count == 0
        g.check_invariants()
        # natives are free again
        g.insert({0}, None)
        assert g.is_decoded(0)
