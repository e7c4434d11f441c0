"""Tests for Algorithm 2 — refining an encoded packet."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.packet import make_content
from repro.core.components import ConnectedComponents
from repro.core.occurrences import OccurrenceTracker
from repro.core.refiner import pair_payload, refine_packet
from repro.costmodel.counters import OpCounter
from repro.lt.tanner import TannerGraph


def _world(k, edges, decoded=(), content=None):
    """Graph + components holding degree-2 packets for the given edges."""
    counter = OpCounter()
    graph = TannerGraph(k, counter=counter)
    components = ConnectedComponents(k, counter=counter)
    for i in decoded:
        payload = content[i] if content is not None else None
        graph.insert({i}, payload)
        components.mark_decoded(i)
    for a, b in edges:
        payload = None
        if content is not None:
            payload = content[a] ^ content[b]
        pid, _ = graph.insert({a, b}, payload)
        components.add_edge(pid, a, b)
    return graph, components


def test_paper_worked_example():
    """Figure 4: z = x0+x1+x2+x3+x4 refines to x0+x1+x3+x4+x6.

    (0-indexed.)  Components: {x2, x4, x6} via edges x2+x4 and x4+x6;
    occurrences make x2 frequent and x6 rare; x2 is in z, x6 is not,
    so x2 is substituted with x6.
    """
    k = 7
    graph, components = _world(k, [(2, 4), (4, 6)])
    occ = OccurrenceTracker(k)
    # x2 appeared in 3 previous packets, x6 in none, others once.
    for support in ({2}, {2}, {2}, {0}, {1}, {3}, {4}, {5}):
        occ.record_sent(support)
    support = {0, 1, 2, 3, 4}
    result = refine_packet(
        support, None, components, occ, graph, OpCounter()
    )
    assert result.support == {0, 1, 3, 4, 6}
    assert result.substitutions == [(2, 6)]


def test_degree_is_invariant():
    k = 8
    graph, components = _world(k, [(0, 1), (1, 2), (3, 4)])
    occ = OccurrenceTracker(k)
    for _ in range(4):
        occ.record_sent({0, 3, 5})
    support = {0, 3, 5}
    result = refine_packet(
        support, None, components, occ, graph, OpCounter()
    )
    assert result.degree == 3


def test_no_substitution_when_uniform():
    """At uniform occurrences nothing is strictly less frequent."""
    k = 6
    graph, components = _world(k, [(0, 1), (2, 3), (4, 5)])
    occ = OccurrenceTracker(k)
    for x in range(k):
        occ.record_sent({x})
    support = {0, 2, 4}
    result = refine_packet(
        support, None, components, occ, graph, OpCounter()
    )
    assert result.support == {0, 2, 4}
    assert result.substitutions == []


def test_no_substitution_across_components():
    k = 6
    graph, components = _world(k, [(0, 1)])
    occ = OccurrenceTracker(k)
    for _ in range(3):
        occ.record_sent({3})
    # x3 is frequent but alone in its component: cannot be replaced.
    result = refine_packet(
        {3}, None, components, occ, graph, OpCounter()
    )
    assert result.support == {3}


def test_substitution_skips_natives_already_in_packet():
    k = 4
    graph, components = _world(k, [(0, 1)])
    occ = OccurrenceTracker(k)
    for _ in range(3):
        occ.record_sent({0})
    # x1 is x0's only partner but already in z: no substitution.
    result = refine_packet(
        {0, 1}, None, components, occ, graph, OpCounter()
    )
    assert result.support == {0, 1}
    assert result.substitutions == []


def test_payload_follows_substitution():
    k, m = 8, 16
    content = make_content(k, m, rng=11)
    graph, components = _world(
        k, [(2, 4), (4, 6)], content=content
    )
    occ = OccurrenceTracker(k)
    for support in ({2}, {2}, {2}, {0}, {1}, {3}, {4}, {5}):
        occ.record_sent(support)
    support = {0, 1, 2, 3, 4}
    payload = np.zeros(m, dtype=np.uint8)
    for i in support:
        payload ^= content[i]
    result = refine_packet(
        set(support), payload, components, occ, graph, OpCounter()
    )
    expected = np.zeros(m, dtype=np.uint8)
    for i in result.support:
        expected ^= content[i]
    assert np.array_equal(result.payload, expected)


def test_decoded_pair_payload():
    k, m = 6, 8
    content = make_content(k, m, rng=12)
    graph, components = _world(k, [], decoded=[1, 3], content=content)
    counter = OpCounter()
    pair = pair_payload(1, 3, components, graph, counter)
    assert np.array_equal(pair, content[1] ^ content[3])
    assert counter.get("payload_xor") == 1


def test_path_pair_payload_telescopes():
    k, m = 8, 8
    content = make_content(k, m, rng=13)
    graph, components = _world(k, [(2, 4), (4, 6)], content=content)
    counter = OpCounter()
    pair = pair_payload(2, 6, components, graph, counter)
    assert np.array_equal(pair, content[2] ^ content[6])
    assert counter.get("payload_xor") == 2  # two packets folded


def test_scan_limit_bounds_work():
    k = 40
    graph, components = _world(k, [(0, i) for i in range(1, 20)])
    occ = OccurrenceTracker(k)
    for _ in range(5):
        occ.record_sent({0})
    counter = OpCounter()
    result = refine_packet(
        {0}, None, components, occ, graph, counter, scan_limit=1
    )
    # With a scan limit of 1 only one candidate may be examined per native.
    assert result.candidates_examined <= 1


@settings(max_examples=50, deadline=None)
@given(
    k=st.integers(3, 14),
    edges=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=16
    ),
    history=st.lists(
        st.sets(st.integers(0, 13), min_size=1, max_size=5), max_size=20
    ),
    packet=st.sets(st.integers(0, 13), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
def test_refine_never_increases_variance(k, edges, history, packet, seed):
    """Refinement preserves degree and never worsens occurrence variance."""
    graph, components = _world(
        k, [(a % k, b % k) for a, b in edges if a % k != b % k]
    )
    occ = OccurrenceTracker(k)
    for support in history:
        occ.record_sent({x % k for x in support})
    support = {x % k for x in packet}
    before_var = float(
        np.var(occ.counts + np.isin(np.arange(k), list(support)))
    )
    result = refine_packet(
        set(support), None, components, occ, graph, OpCounter()
    )
    assert result.degree == len(support)
    after_var = float(
        np.var(occ.counts + np.isin(np.arange(k), list(result.support)))
    )
    assert after_var <= before_var + 1e-9


@settings(max_examples=80, deadline=None)
@given(
    k=st.integers(3, 14),
    edges=st.lists(
        st.tuples(st.integers(0, 13), st.integers(0, 13)), max_size=16
    ),
    decoded=st.sets(st.integers(0, 13), max_size=4),
    history=st.lists(
        st.sets(st.integers(0, 13), min_size=1, max_size=5), max_size=20
    ),
    packet=st.sets(st.integers(0, 13), min_size=1, max_size=6),
    scan_limit=st.one_of(st.none(), st.integers(1, 6)),
)
def test_refine_matches_reference_walk(
    k, edges, decoded, history, packet, scan_limit
):
    """The scan agrees with the candidate-by-candidate walk, charges too."""
    from oracles import reference_refine

    runs = []
    for refine in (refine_packet, reference_refine):
        decoded_natives = sorted({x % k for x in decoded})
        graph, components = _world(
            k,
            [
                (a % k, b % k)
                for a, b in edges
                if a % k != b % k
                and a % k not in decoded_natives
                and b % k not in decoded_natives
            ],
            decoded=decoded_natives,
        )
        components.counter = OpCounter()
        occ = OccurrenceTracker(k)
        for support in history:
            occ.record_sent({x % k for x in support})
        occ.counter = OpCounter()
        counter = OpCounter()
        result = refine(
            {x % k for x in packet},
            None,
            components,
            occ,
            graph,
            counter,
            scan_limit=scan_limit,
        )
        runs.append(
            (
                result.support,
                result.substitutions,
                result.candidates_examined,
                counter.counts,
                occ.counter.counts,
                components.counter.counts,
            )
        )
    assert runs[0] == runs[1]
