"""Unit tests for the catalogue subsystem: specs, demand, caches, simulator."""

import json

import pytest

from repro.content import (
    CatalogueSimulator,
    CatalogueSpec,
    ContentSpec,
    DemandModel,
    NodeCache,
    zipf_weights,
)
from repro.errors import SimulationError
from repro.experiments.scale import PROFILES
from repro.rng import derive
from repro.scenarios import (
    CONTENT_PRESETS,
    FleetRunner,
    ScenarioAggregate,
    ScenarioSpec,
    get_preset,
    trial_record,
    trial_seed,
)

from oracles import serial_grid

QUICK = PROFILES["quick"]


# -- specs -------------------------------------------------------------
def test_content_spec_validates():
    with pytest.raises(SimulationError):
        ContentSpec(name="", k=8)
    with pytest.raises(SimulationError):
        ContentSpec(name="c", k=0)
    with pytest.raises(SimulationError):
        ContentSpec(name="c", k=8, scheme="nope")
    with pytest.raises(SimulationError):
        # Striping is an LTNC-only optimisation.
        ContentSpec(name="c", k=8, scheme="rlnc", generation_size=4)


def test_catalogue_spec_validates():
    with pytest.raises(SimulationError):
        CatalogueSpec(n_contents=0)
    with pytest.raises(SimulationError):
        CatalogueSpec(n_contents=2, interests_per_node=3)
    with pytest.raises(SimulationError):
        CatalogueSpec(demand="popular")
    with pytest.raises(SimulationError):
        CatalogueSpec(cache_policy="fifo", cache_capacity=4)
    with pytest.raises(SimulationError):
        CatalogueSpec(cache_policy="lru", cache_capacity=0)
    with pytest.raises(SimulationError):
        CatalogueSpec(cache_policy="pin", cache_capacity=4)  # no pins
    with pytest.raises(SimulationError):
        CatalogueSpec(pin_contents=("c0",))  # pins without pin policy
    with pytest.raises(SimulationError):
        CatalogueSpec(source_schedule="sorted")
    with pytest.raises(SimulationError):
        CatalogueSpec(
            contents=(
                ContentSpec(name="a", k=4),
                ContentSpec(name="a", k=8),
            )
        )


def test_catalogue_resolve_inherits_scenario_defaults():
    cat = CatalogueSpec(n_contents=3, generation_size=4)
    resolved = cat.resolve(16, "ltnc")
    assert [c.name for c in resolved] == ["c0", "c1", "c2"]
    assert all(c.k == 16 and c.scheme == "ltnc" for c in resolved)
    assert all(c.generation_size == 4 for c in resolved)
    explicit = CatalogueSpec(
        contents=(ContentSpec(name="movie", k=8, scheme="rlnc"),)
    )
    assert explicit.resolve(99, "wc")[0].k == 8


def test_catalogue_spec_roundtrips_with_explicit_contents():
    cat = CatalogueSpec(
        contents=(
            ContentSpec(name="a", k=8),
            ContentSpec(name="b", k=16, generation_size=4),
        ),
        demand="uniform",
        cache_policy="pin",
        cache_capacity=10,
        cache_fraction=0.5,
        pin_contents=("b",),
    )
    rebuilt = CatalogueSpec.from_dict(json.loads(json.dumps(cat.to_dict())))
    assert rebuilt == cat


def test_pin_names_must_exist_in_catalogue():
    cat = CatalogueSpec(
        n_contents=2,
        cache_policy="pin",
        cache_capacity=4,
        cache_fraction=0.5,
        pin_contents=("c9",),
    )
    with pytest.raises(SimulationError):
        cat.resolve(8, "ltnc")


# -- demand ------------------------------------------------------------
def test_zipf_weights_shape():
    w = zipf_weights(4, 1.0)
    assert w == sorted(w, reverse=True)
    assert sum(w) == pytest.approx(1.0)
    assert zipf_weights(4, 0.0) == pytest.approx([0.25] * 4)
    with pytest.raises(SimulationError):
        zipf_weights(0, 1.0)
    with pytest.raises(SimulationError):
        zipf_weights(4, -1.0)


def test_demand_assignment_is_deterministic_and_valid():
    demand = DemandModel(4, kind="zipf", s=1.0)
    a = demand.assign_interests(20, 2, rng=derive(7, "demand"))
    b = demand.assign_interests(20, 2, rng=derive(7, "demand"))
    assert a == b
    for wanted in a:
        assert len(wanted) == 2
        assert len(set(wanted)) == 2
        assert wanted == tuple(sorted(wanted))
    # Popular contents appear in more interest sets.
    counts = [0] * 4
    for wanted in a:
        for c in wanted:
            counts[c] += 1
    assert counts[0] >= counts[3]
    index = demand.interested_nodes(a)
    assert sum(len(nodes) for nodes in index) == 40


def test_demand_validates():
    with pytest.raises(SimulationError):
        DemandModel(3, kind="nope")
    with pytest.raises(SimulationError):
        DemandModel(3).assign_interests(5, 4)


# -- caches ------------------------------------------------------------
def test_lru_evicts_least_recently_used():
    cache = NodeCache("lru", capacity=3)
    assert cache.admit(0) == []
    assert cache.admit(1) == []
    assert cache.admit(2) == []
    cache.touch_served(0)  # refresh 0; victim becomes 1
    assert cache.admit(3) == [1]
    assert sorted(cache.counts) == [0, 2, 3]
    assert cache.evictions == 1


def test_lfu_evicts_least_frequent_with_deterministic_ties():
    cache = NodeCache("lfu", capacity=3)
    cache.admit(0)
    cache.admit(1)
    cache.admit(2)
    cache.touch_served(0)
    cache.touch_served(1)
    # 2 is the least-frequently used.
    assert cache.admit(3) == [2]
    # The newcomer 3 (one use) now has the lowest frequency of the
    # tenants, so it is the next victim — classic LFU.
    assert cache.admit(4) == [3]
    assert sorted(cache.counts) == [0, 1, 4]


def test_pin_admits_only_pinned_and_never_evicts():
    cache = NodeCache("pin", capacity=2, pinned=frozenset({1}))
    assert not cache.would_admit(0)
    assert cache.admit(0) == []
    assert cache.rejects == 1
    assert cache.admit(1) == []
    assert cache.admit(1) == []
    assert cache.total_packets == 2
    # Budget spent: even the pinned content is refused now.
    assert not cache.would_admit(1)
    assert cache.admit(1) == []
    assert cache.rejects == 2
    assert cache.evictions == 0


def test_cache_validates():
    with pytest.raises(SimulationError):
        NodeCache("fifo", capacity=2)
    with pytest.raises(SimulationError):
        NodeCache("lru", capacity=0)
    with pytest.raises(SimulationError):
        NodeCache("pin", capacity=2)


# -- scenario integration ----------------------------------------------
def test_scenario_content_roundtrips_and_coerces_dicts():
    spec = ScenarioSpec(
        name="x",
        n_nodes=8,
        k=16,
        content={"n_contents": 3, "interests_per_node": 2},
    )
    assert isinstance(spec.content, CatalogueSpec)
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert rebuilt == spec
    assert json.loads(spec.to_json())["content"]["n_contents"] == 3
    # Specs predating the content field still load (missing key -> None).
    payload = spec.to_dict()
    del payload["content"]
    assert ScenarioSpec.from_dict(payload).content is None


def test_scenario_content_validation():
    with pytest.raises(SimulationError):
        # Full feedback is single-content only.
        ScenarioSpec(name="x", feedback="full", content={"n_contents": 2})
    with pytest.raises(SimulationError):
        # Catalogue workloads model caches through the content field.
        ScenarioSpec(
            name="x",
            warm_fraction=0.5,
            warm_packets=4,
            content={"n_contents": 2},
        )
    with pytest.raises(SimulationError):
        # cache_at_root needs a graph to have a root.
        ScenarioSpec(
            name="x",
            content={
                "n_contents": 2,
                "cache_policy": "lru",
                "cache_capacity": 4,
                "cache_fraction": 0.5,
                "cache_at_root": True,
            },
        )
    with pytest.raises(SimulationError):
        # Bad pin names fail at spec time, not mid-trial.
        ScenarioSpec(
            name="x",
            content={
                "n_contents": 2,
                "cache_policy": "pin",
                "cache_capacity": 4,
                "cache_fraction": 0.5,
                "pin_contents": ["nope"],
            },
        )


def test_scenario_content_builds_catalogue_simulator():
    spec = ScenarioSpec(
        name="x",
        n_nodes=8,
        k=8,
        content={"n_contents": 2, "interests_per_node": 1},
        node_kwargs={"aggressiveness": 0.01},
    )
    sim = spec.build(seed=3)
    assert isinstance(sim, CatalogueSimulator)
    assert sim.n_contents == 2
    assert len(sim.interests) == 8
    result = sim.run()
    assert result.all_complete
    assert result.n_pairs == 8


def test_content_trial_is_deterministic_and_reruns_standalone():
    spec = get_preset("zipf_catalogue", QUICK)
    agg = FleetRunner(1).run(spec, 2, master_seed=9)
    trial = agg.trials[1]
    rerun = spec.run(trial["seed"])
    for key, value in rerun.key_metrics().items():
        assert trial[key] == value


@pytest.mark.parametrize("name", CONTENT_PRESETS)
def test_content_presets_are_worker_count_invariant(name):
    spec = get_preset(name, QUICK)
    serial = serial_grid([spec], 4, 7)[spec.name]
    parallel = FleetRunner(n_workers=4).run(spec, 4, master_seed=7)
    assert serial.to_json() == parallel.to_json()


def test_merged_content_aggregates_equal_single_process():
    # Regression for the mergeable-aggregate contract on the new
    # per-content counters: two shards of a catalogue seed grid merge
    # to the byte-identical JSON of a single pass, per-content
    # ``content:<name>:*`` keys included.
    spec = get_preset("edge_cache_catalogue", QUICK)
    whole = FleetRunner(1).run(spec, 4, master_seed=9)
    first = ScenarioAggregate(spec, 9)
    second = ScenarioAggregate(spec, 9)
    for i in range(4):
        seed = trial_seed(9, spec.name, i)
        target = first if i % 2 == 0 else second
        target.add_record(trial_record(i, seed, spec.run(seed)))
    first.merge(second)
    assert first.to_json() == whole.to_json()
    merged_metrics = first.metrics_summary()
    assert any(key.startswith("content:") for key in merged_metrics)


def test_cache_at_root_places_caches_near_the_root():
    spec = get_preset("edge_cache_catalogue", QUICK)
    sim = spec.build(seed=5)
    assert isinstance(sim, CatalogueSimulator)
    assert sim.cache_nodes  # quarter of the nodes
    graph = sim.sampler.graph
    hops = graph.hops_from(spec.topology.root)
    worst_cache = max(hops[i] for i in sim.cache_nodes)
    others = [hops[i] for i in range(spec.n_nodes) if i not in sim.cache_nodes]
    # Every cache sits no deeper than any non-cache node.
    assert worst_cache <= min(others)


def test_unwanted_sessions_abort_under_binary_feedback():
    spec = ScenarioSpec(
        name="x",
        n_nodes=6,
        k=8,
        content={"n_contents": 3, "interests_per_node": 1},
        node_kwargs={"aggressiveness": 0.01},
    )
    result = spec.run(seed=1)
    # With three contents and one interest each, unwanted pushes exist
    # and cost only a header exchange.
    assert result.unwanted > 0
    assert result.aborted >= result.unwanted
    assert result.all_complete


def test_striped_content_uses_generation_packets():
    from repro.content.simulator import _StripedEndpoint

    spec = ScenarioSpec(
        name="x",
        n_nodes=4,
        k=16,
        content={
            "n_contents": 1,
            "generation_size": 4,
            "interests_per_node": 1,
        },
        node_kwargs={"aggressiveness": 0.01},
    )
    sim = spec.build(seed=2)
    result = sim.run()
    assert result.all_complete
    endpoint = sim.endpoint(0, 0)
    assert isinstance(endpoint, _StripedEndpoint)
    assert endpoint.node.n_generations == 4


def test_no_feedback_ships_unwanted_payloads():
    spec = ScenarioSpec(
        name="x",
        n_nodes=6,
        k=8,
        feedback="none",
        max_rounds=40,
        content={"n_contents": 3, "interests_per_node": 1},
        node_kwargs={"aggressiveness": 0.01},
    )
    result = spec.run(seed=4)
    assert result.aborted == 0
    assert result.unwanted > 0
    assert result.redundant_transfers >= result.unwanted


def test_churn_never_rewrites_recorded_completions():
    # Regression: a churned node used to lose even its *completed*
    # contents, then re-complete them and overwrite the recorded
    # completion round.  Completed contents are persisted (the
    # single-content "completed nodes are spared" semantics), and a
    # recorded completion is immutable.
    spec = ScenarioSpec(
        name="x",
        n_nodes=8,
        k=8,
        churn_rate=0.3,
        content={"n_contents": 2, "interests_per_node": 2},
        node_kwargs={"aggressiveness": 0.01},
    )
    sim = spec.build(seed=0)
    seen: dict = {}
    for round_index in range(sim.max_rounds):
        sim.step(round_index)
        for pair, completed_at in sim.result.completion_rounds.items():
            assert seen.setdefault(pair, completed_at) == completed_at, pair
        if sim.result.all_complete:
            break
    assert sim.result.churn_events > 0
    assert sim.result.all_complete


def test_catalogue_churn_resets_and_recovers():
    spec = ScenarioSpec(
        name="x",
        n_nodes=8,
        k=8,
        churn_rate=0.2,
        content={"n_contents": 2, "interests_per_node": 1},
        node_kwargs={"aggressiveness": 0.01},
    )
    result = spec.run(seed=6)
    assert result.churn_events > 0
    assert result.all_complete
