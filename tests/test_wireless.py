"""Tests for the wireless broadcast setting with snooping."""

import pytest

from repro.errors import SimulationError
from repro.gossip.wireless import (
    WirelessSimulator,
    WirelessTopology,
    _Snoop,
)


def test_topology_validation():
    with pytest.raises(SimulationError):
        WirelessTopology(1)
    with pytest.raises(SimulationError):
        WirelessTopology(8, radius=0.0)


def test_topology_connected_and_symmetric():
    topo = WirelessTopology(30, radius=0.2, rng=0)
    assert topo.is_connected()
    for i in range(30):
        for j in topo.neighbors(i):
            assert i in topo.neighbors(j)
            assert i != j


def test_topology_radius_grows_until_connected():
    # A tiny initial radius cannot connect 40 nodes; growth must kick in.
    topo = WirelessTopology(40, radius=0.01, rng=1)
    assert topo.is_connected()
    assert topo.radius > 0.01


def test_snoop_is_conservative():
    """Snooped state never claims knowledge the neighbour did not show."""
    snoop = _Snoop(8)
    snoop.observe({3})
    snoop.observe({1, 2})
    snoop.observe({2, 4})
    state = snoop.state()
    assert state.is_decoded(3)
    assert not state.is_decoded(1)
    assert state.ccr[1] == state.ccr[2] == state.ccr[4]
    assert state.ccr[1] != state.ccr[5]
    # High-degree packets carry no degree-<=2 information: ignored.
    snoop.observe({5, 6, 7})
    assert snoop.state().ccr[5] != snoop.state().ccr[6]


def test_snoop_skips_decoded_endpoints():
    snoop = _Snoop(4)
    snoop.observe({0})
    snoop.observe({0, 1})  # endpoint decoded: skipped, stays conservative
    assert not snoop.state().is_decoded(1)


@pytest.mark.parametrize("scheme", ["ltnc", "rlnc"])
def test_wireless_dissemination_converges(scheme):
    topo = WirelessTopology(12, radius=0.35, rng=2)
    sim = WirelessSimulator(scheme, topo, 24, seed=3, max_rounds=6000)
    result = sim.run()
    assert result.all_complete
    assert result.transmissions > 0
    # Broadcast advantage: each transmission reaches several hearers.
    assert result.broadcast_gain() > 1.0


def test_snooping_accelerates_ltnc():
    topo = WirelessTopology(16, radius=0.35, rng=4)
    rounds = {}
    usefulness = {}
    for snoop in (False, True):
        sim = WirelessSimulator(
            "ltnc",
            topo,
            32,
            snoop=snoop,
            seed=5,
            max_rounds=8000,
            node_kwargs={"aggressiveness": 0.01},
        )
        result = sim.run()
        assert result.all_complete
        rounds[snoop] = result.average_completion_round()
        usefulness[snoop] = result.usefulness()
    assert rounds[True] < rounds[False]
    assert usefulness[True] > usefulness[False]


def test_smart_targets_counted_only_when_snooping():
    topo = WirelessTopology(10, radius=0.4, rng=6)
    silent = WirelessSimulator("ltnc", topo, 16, snoop=False, seed=7,
                               max_rounds=4000)
    silent.run()
    assert silent.result.smart_targets == 0
    snooping = WirelessSimulator("ltnc", topo, 16, snoop=True, seed=7,
                                 max_rounds=4000)
    snooping.run()
    assert snooping.result.smart_targets > 0


def test_snoop_state_built_only_when_snooping():
    # One _Snoop per directed radio link, and only for a snooping run:
    # without snooping nothing reads them.
    topo = WirelessTopology(12, radius=0.4, rng=3)
    links = sum(len(topo.neighbors(i)) for i in range(topo.n_nodes))
    silent = WirelessSimulator("ltnc", topo, 16, snoop=False, seed=1)
    assert not any(silent._snoops)
    snooping = WirelessSimulator("ltnc", topo, 16, snoop=True, seed=1)
    assert sum(len(s) for s in snooping._snoops) == links > 0


def test_result_guards():
    from repro.gossip.wireless import WirelessResult

    result = WirelessResult("ltnc", 4, 8)
    with pytest.raises(SimulationError):
        result.average_completion_round()
    assert result.broadcast_gain() == 0.0
    assert result.usefulness() == 0.0
