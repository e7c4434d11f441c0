"""Unit tests for the scenario subsystem: specs, presets, aggregation."""

import json

import pytest

from repro.errors import SimulationError
from repro.experiments.scale import PROFILES
from repro.gossip.channel import ChannelModel, ChurnPhase, HeterogeneousChannel
from repro.gossip.peer_sampling import ViewSampler
from repro.scenarios import (
    PRESETS,
    FleetRunner,
    ScenarioAggregate,
    ScenarioSpec,
    TopologySpec,
    get_preset,
    preset_names,
    scenario_groups,
    summary_stats,
    trial_record,
    trial_seed,
)
from repro.topology import TopologyChannel, TopologySampler

QUICK = PROFILES["quick"]


# -- spec validation and compilation ----------------------------------
def test_spec_validates_fields():
    with pytest.raises(SimulationError):
        ScenarioSpec(name="")
    with pytest.raises(SimulationError):
        ScenarioSpec(name="x", scheme="nope")
    with pytest.raises(SimulationError):
        ScenarioSpec(name="x", feedback="maybe")
    with pytest.raises(SimulationError):
        ScenarioSpec(name="x", sampler="ring")
    with pytest.raises(SimulationError):
        ScenarioSpec(name="x", n_nodes=1)
    with pytest.raises(SimulationError):
        ScenarioSpec(name="x", n_nodes=4, node_loss=(0.1, 0.2))
    with pytest.raises(SimulationError):
        ScenarioSpec(name="x", warm_fraction=1.5)


def test_spec_compiles_plain_channel_when_homogeneous():
    spec = ScenarioSpec(name="x", loss_rate=0.1)
    channel = spec.channel()
    assert type(channel) is ChannelModel
    assert channel.loss_rate == 0.1


def test_spec_compiles_heterogeneous_channel():
    spec = ScenarioSpec(
        name="x",
        n_nodes=3,
        node_loss=[0.0, 0.1, 0.2],  # lists accepted, tuple-ified
        churn_phases=({"start": 5, "end": 10, "rate": 0.3},),
    )
    channel = spec.channel()
    assert isinstance(channel, HeterogeneousChannel)
    assert channel.node_loss == (0.0, 0.1, 0.2)
    assert channel.churn_phases == (ChurnPhase(5, 10, 0.3),)


def test_spec_builds_view_sampler_and_multi_source():
    spec = ScenarioSpec(
        name="x", n_nodes=6, k=8, sampler="view", view_size=3, n_sources=2
    )
    sim = spec.build(seed=1)
    assert isinstance(sim.sampler, ViewSampler)
    assert sim.sampler.view_size == 3
    assert len(sim.sources) == 2
    assert sim.source is sim.sources[0]


def test_spec_build_is_deterministic():
    spec = ScenarioSpec(name="x", n_nodes=8, k=16, churn_rate=0.05)
    a = spec.run(seed=42)
    b = spec.run(seed=42)
    assert a.key_metrics() == b.key_metrics()
    assert a.series_completed == b.series_completed


def test_prewarm_speeds_up_dissemination():
    base = ScenarioSpec(name="cold", n_nodes=10, k=32)
    warm = base.with_(name="warm", warm_fraction=0.5, warm_packets=24)
    cold_result = base.run(seed=3)
    warm_result = warm.run(seed=3)
    assert warm_result.all_complete
    assert warm_result.rounds < cold_result.rounds


def test_prewarm_keeps_overhead_non_negative():
    # Warm packets count as data received: "transfers beyond the k a
    # node fundamentally needs" can never be negative, even when the
    # whole network is pre-warmed nearly to completion.
    spec = ScenarioSpec(
        name="hot", n_nodes=10, k=32, warm_fraction=1.0, warm_packets=28
    )
    result = spec.run(seed=3)
    assert result.all_complete
    assert result.overhead() >= 0.0
    # Decoding k natives takes at least k received packets, warm or not.
    for data in result.data_until_complete.values():
        assert data >= spec.k


def test_multi_source_injects_more():
    one = ScenarioSpec(name="one", n_nodes=10, k=16, max_rounds=5)
    two = one.with_(name="two", n_sources=2)
    r1 = one.run(seed=4)
    r2 = two.run(seed=4)
    # Two origins inject twice the per-round source traffic.
    assert r2.sessions > r1.sessions


# -- presets ------------------------------------------------------------
def test_preset_catalogue():
    assert preset_names() == (
        "baseline",
        "churn",
        "edge_cache",
        "edge_cache_catalogue",
        "large_overlay",
        "multihop_lossy",
        "powerline_multihop",
        "scalefree_p2p",
        "sensor_grid",
        "smallworld_gossip",
        "sparse_rlnc",
        "striped_vod",
        "zipf_catalogue",
    )
    with pytest.raises(SimulationError):
        get_preset("nope")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_scale_with_profile(name):
    spec = get_preset(name, QUICK)
    assert spec.name == name
    if name == "large_overlay":
        # The scale-out preset: N >> k relative to the profile.
        assert spec.n_nodes == QUICK.n_nodes * 8
        assert spec.k == QUICK.k_default // 2
    else:
        assert spec.n_nodes == QUICK.n_nodes
        assert spec.k == QUICK.k_default


@pytest.mark.parametrize(
    "name", ["powerline_multihop", "scalefree_p2p", "sensor_grid", "smallworld_gossip"]
)
def test_topology_presets_compile_structured(name):
    spec = get_preset(name, QUICK)
    assert spec.sampler == "topology"
    assert spec.topology is not None
    sim = spec.build(seed=1)
    assert isinstance(sim.sampler, TopologySampler)
    assert sim.sampler.graph.n_nodes == QUICK.n_nodes
    if spec.topology.loss_mode != "none":
        assert isinstance(sim.channel, TopologyChannel)


def test_multihop_loss_increases_with_ring():
    spec = get_preset("multihop_lossy", QUICK)
    assert len(spec.node_loss) == QUICK.n_nodes
    assert spec.node_loss[0] < spec.node_loss[-1]
    assert all(0.0 < rate < 1.0 for rate in spec.node_loss)


# -- aggregation ---------------------------------------------------------
def test_summary_stats_handles_none_and_singletons():
    assert summary_stats([None, None])["n"] == 0
    single = summary_stats([3.0, None])
    assert single == {"n": 1, "mean": 3.0, "ci95": 0.0, "min": 3.0, "max": 3.0}
    stats = summary_stats([1.0, 2.0, 3.0])
    assert stats["n"] == 3
    assert stats["mean"] == pytest.approx(2.0)
    assert stats["ci95"] == pytest.approx(1.96 * 1.0 / 3**0.5)


def test_aggregate_merge_matches_single_pass():
    spec = ScenarioSpec(name="x", n_nodes=8, k=16)
    whole = FleetRunner(1).run(spec, 4, master_seed=9)

    first = ScenarioAggregate(spec, 9)
    second = ScenarioAggregate(spec, 9)
    for i in range(4):
        seed = trial_seed(9, spec.name, i)
        target = first if i < 2 else second
        target.add_record(trial_record(i, seed, spec.run(seed)))
    first.merge(second)
    assert first.to_json() == whole.to_json()


def test_aggregate_merge_rejects_mismatches():
    spec = ScenarioSpec(name="x", n_nodes=8, k=16)
    other = ScenarioSpec(name="y", n_nodes=8, k=16)
    a = ScenarioAggregate(spec, 0)
    with pytest.raises(SimulationError):
        a.merge(ScenarioAggregate(other, 0))
    with pytest.raises(SimulationError):
        a.merge(ScenarioAggregate(spec, 1))
    b = ScenarioAggregate(spec, 0)
    a.trials.append({"trial_index": 0})
    b.trials.append({"trial_index": 0})
    with pytest.raises(SimulationError):
        a.merge(b)


# -- runner ---------------------------------------------------------------
def test_trial_seeds_are_stable_and_distinct():
    seeds = [trial_seed(7, "churn", i) for i in range(8)]
    assert len(set(seeds)) == 8
    assert seeds == [trial_seed(7, "churn", i) for i in range(8)]
    assert trial_seed(8, "churn", 0) != seeds[0]
    assert trial_seed(7, "baseline", 0) != seeds[0]


def test_runner_validates_arguments():
    with pytest.raises(SimulationError):
        FleetRunner(0)
    with pytest.raises(SimulationError):
        FleetRunner(1).run(ScenarioSpec(name="x"), 0)


def test_run_grid_rejects_duplicate_names():
    spec = ScenarioSpec(name="x", n_nodes=8, k=16)
    with pytest.raises(SimulationError):
        FleetRunner(1).run_grid([spec, spec], 1)


def test_run_grid_produces_one_aggregate_per_scenario():
    specs = [
        ScenarioSpec(name="a", n_nodes=8, k=16),
        ScenarioSpec(name="b", n_nodes=8, k=16, loss_rate=0.2),
    ]
    aggregates = FleetRunner(1).run_grid(specs, 2, master_seed=5)
    assert set(aggregates) == {"a", "b"}
    for name, agg in aggregates.items():
        assert agg.n_trials == 2
        assert agg.scenario.name == name
        payload = json.loads(agg.to_json())
        assert payload["n_trials"] == 2
        assert [t["trial_index"] for t in payload["trials"]] == [0, 1]


def test_grid_trial_matches_standalone_rerun():
    # Any cell of the grid is bit-reproducible from its integer seed
    # alone — the property that makes failures debuggable in isolation.
    spec = ScenarioSpec(name="x", n_nodes=8, k=16, churn_rate=0.05)
    agg = FleetRunner(1).run(spec, 3, master_seed=11)
    trial = agg.trials[1]
    rerun = spec.run(trial["seed"])
    for key, value in rerun.key_metrics().items():
        assert trial[key] == value


# -- topology field -------------------------------------------------------
def test_spec_topology_roundtrips_and_coerces_dicts():
    spec = ScenarioSpec(
        name="x",
        n_nodes=9,
        k=8,
        sampler="topology",
        topology={"graph": "grid2d", "loss_mode": "hop", "per_hop_loss": 0.1},
    )
    assert isinstance(spec.topology, TopologySpec)
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert json.loads(spec.to_json())["topology"]["graph"] == "grid2d"


def test_spec_topology_validation():
    with pytest.raises(SimulationError):
        ScenarioSpec(name="x", sampler="topology")  # no topology given
    with pytest.raises(SimulationError):
        ScenarioSpec(name="x", topology={"graph": "escher"})
    with pytest.raises(SimulationError):
        # Root outside the scenario's node range.
        ScenarioSpec(name="x", n_nodes=4, topology={"graph": "line", "root": 7})


def test_spec_topology_channel_only():
    # A topology can shape the channel while sampling stays uniform.
    spec = ScenarioSpec(
        name="x",
        n_nodes=6,
        k=8,
        topology={"graph": "line", "loss_mode": "hop", "per_hop_loss": 0.2},
    )
    sim = spec.build(seed=2)
    assert isinstance(sim.channel, TopologyChannel)
    assert not isinstance(sim.sampler, TopologySampler)
    # Source (-1) pays the full line distance to the far end.
    assert sim.channel.loss_for(-1, 5) == pytest.approx(1 - 0.8**5)


def test_spec_topology_composes_base_loss():
    spec = ScenarioSpec(
        name="x",
        n_nodes=4,
        k=8,
        loss_rate=0.5,
        topology={"graph": "line", "loss_mode": "hop", "per_hop_loss": 0.1},
    )
    channel = spec.build(seed=0).channel
    # Survival multiplies: 1 - (1-0.1)^1 * (1-0.5) on an adjacent link.
    assert channel.loss_for(0, 1) == pytest.approx(1 - 0.9 * 0.5)


def test_spec_topology_graph_is_trial_deterministic():
    spec = ScenarioSpec(
        name="x",
        n_nodes=16,
        k=8,
        sampler="topology",
        topology={"graph": "watts_strogatz", "params": {"rewire_p": 0.3}},
    )
    a = spec.build(seed=5).sampler.graph
    b = spec.build(seed=5).sampler.graph
    c = spec.build(seed=6).sampler.graph
    assert a == b
    assert a != c  # a different trial seed grows a different overlay


# -- CLI ------------------------------------------------------------------
def test_cli_list_exits_zero(capsys):
    from repro.scenarios.__main__ import main

    assert main(["--list"]) == 0
    out = capsys.readouterr().out
    for name in preset_names():
        assert name in out
    for group in scenario_groups():
        assert f"{group} " in out


def test_cli_schemes_lists_registry(capsys):
    from repro.scenarios.__main__ import main
    from repro.schemes import available_schemes

    assert main(["--schemes"]) == 0
    out = capsys.readouterr().out
    for name in available_schemes():
        assert name in out
    assert "capabilities:" in out
    assert "knobs:" in out


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--workers", "0"], "--workers must be >= 1"),
        (["--trials", "-3"], "--trials must be >= 1"),
        (["--scenario", "nope"], "unknown scenario 'nope'"),
    ],
)
def test_cli_rejects_bad_arguments(capsys, argv, fragment):
    from repro.scenarios.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err
