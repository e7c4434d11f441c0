"""Tests for the figure groups and their readers (small, fast profiles)."""

import dataclasses
import tempfile

import numpy as np
import pytest

from repro.core.node import PPM
from repro.errors import SimulationError
from repro.experiments.ablations import AblationOutcome
from repro.experiments.fig7 import ConvergenceCurve
from repro.experiments.fig8 import cost_series, measure_decoding, measure_recoding
from repro.experiments.scale import PROFILES, current_profile
from repro.experiments.textstats import (
    RecodingStats,
    measure_redundant_insertions,
    run_with_telemetry,
)
from repro.obs import MetricsCollector, ObsSpec
from repro.scenarios import FleetRunner, ScenarioSpec, expand_scenarios

from oracles import (
    convergence_series,
    serial_fig7,
    serial_ltnc_variant,
    serial_recoding_stats,
)

#: N=8, k=16 (k sweep 16, 32): every group runs in about a second.
SMALL = dataclasses.replace(
    PROFILES["quick"], name="small", n_nodes=8, k_default=16, k_sweep=(16, 32)
)


def _profile(**sizes):
    return dataclasses.replace(SMALL, **sizes)


def _cells(group, profile, **fields):
    """A group's cells, with *fields* replaced in each."""
    return [cell.with_(**fields) for cell in expand_scenarios([group], profile)]


def _run(group, seed, n_trials=2, profile=SMALL, n_workers=1, **fields):
    """A group's aggregates, by cell name."""
    return FleetRunner(n_workers=n_workers).run_grid(
        _cells(group, profile, **fields), n_trials, seed
    )


def _curves(seed, n_trials, profile=SMALL, n_workers=1):
    """Fig. 7a's curves, by scheme, read from a traced run."""
    with tempfile.TemporaryDirectory() as trace_dir:
        cells = [
            cell.with_(obs=ObsSpec(trace_dir=trace_dir))
            for cell in expand_scenarios(["fig7a_convergence"], profile)
        ]
        aggregates = FleetRunner(n_workers=n_workers).run_grid(
            cells, n_trials, seed
        )
        return {
            a.scenario.scheme: ConvergenceCurve.from_traces(a, trace_dir)
            for a in aggregates.values()
        }


def _outcomes(group, seed, n_trials, profile=SMALL, n_workers=1, **fields):
    """An LTNC variant group's outcomes, by cell name."""
    aggregates, telemetry = run_with_telemetry(
        _cells(group, profile, **fields), n_trials, seed, n_workers
    )
    return {
        name: AblationOutcome.from_run(aggregate, telemetry[name])
        for name, aggregate in aggregates.items()
    }


def _recoding_stats(seed, n_trials, profile=SMALL, n_workers=1):
    (cell,) = expand_scenarios(["text_stats"], profile)
    _, telemetry = run_with_telemetry([cell], n_trials, seed, n_workers)
    return RecodingStats.from_section(telemetry[cell.name])


def test_profiles_well_formed():
    for name, profile in PROFILES.items():
        assert profile.name == name
        assert profile.n_nodes >= 2
        assert profile.monte_carlo >= 1
        assert all(k > 0 for k in profile.k_sweep)


def test_current_profile_env(monkeypatch):
    monkeypatch.setenv("LTNC_SCALE", "quick")
    assert current_profile().name == "quick"
    monkeypatch.setenv("LTNC_SCALE", "paper")
    assert current_profile().name == "paper"
    monkeypatch.setenv("LTNC_SCALE", "nope")
    with pytest.raises(KeyError):
        current_profile()


def test_average_completion_ordering():
    aggregates = _run("fig7b_completion_time", seed=1)
    for k in SMALL.k_sweep:
        rlnc = aggregates[f"fig7:rlnc:n8:k{k}"].mean("average_completion_round")
        wc = aggregates[f"fig7:wc:n8:k{k}"].mean("average_completion_round")
        assert rlnc < wc


def test_ltnc_overhead_positive():
    aggregates = _run("fig7c_overhead", seed=2)
    for k in SMALL.k_sweep:
        assert aggregates[f"fig7:ltnc:n8:k{k}"].mean("overhead") > 0.0
    # WC and RLNC check innovation exactly.
    assert aggregates["fig7c:wc"].mean("overhead") == 0.0
    assert aggregates["fig7c:rlnc"].mean("overhead") == 0.0


def test_measure_recoding_shapes():
    ltnc = measure_recoding("ltnc", 64, samples=30, seed=3)
    rlnc = measure_recoding("rlnc", 64, samples=30, seed=3)
    # Fig 8a: LTNC's build+refine control work exceeds RLNC's.
    assert ltnc.control_cycles > rlnc.control_cycles
    # Fig 8c: RLNC XORs ~ln k + 20 payloads; LTNC a handful.
    assert ltnc.data_cycles_per_byte < rlnc.data_cycles_per_byte
    with pytest.raises(SimulationError):
        measure_recoding("wc", 64)


def test_measure_decoding_shapes():
    ltnc = measure_decoding("ltnc", 256, seed=4)
    rlnc = measure_decoding("rlnc", 256, seed=4)
    # Fig 8b/8d: Gauss reduction dwarfs belief propagation.
    assert rlnc.control_cycles > ltnc.control_cycles
    assert rlnc.data_cycles_per_byte > ltnc.data_cycles_per_byte
    with pytest.raises(SimulationError):
        measure_decoding("wc", 64)


def test_cost_series_structure():
    series = cost_series("recoding", (16, 32), samples=10, seed=5)
    assert set(series) == {"ltnc", "rlnc"}
    for points in series.values():
        assert [p.k for p in points] == [16, 32]
    with pytest.raises(SimulationError):
        cost_series("sorting", (16,))


def test_measure_redundant_insertions():
    stats = measure_redundant_insertions(k=48, stream_length=150, seed=7)
    assert stats.stream_length == 150
    # Detection must never *increase* redundant insertions.
    assert stats.redundant_inserted_with <= stats.redundant_inserted_without
    assert 0.0 <= stats.reduction <= 1.0


def test_refinement_ablation_lowers_rsd():
    outcomes = _outcomes(
        "ablation_refinement", 8, 1, _profile(n_nodes=10, k_default=48)
    )
    assert (
        outcomes["refine-on"].occurrence_rsd
        < outcomes["refine-off"].occurrence_rsd
    )


def test_feedback_ablation_none_ships_all():
    outcomes = _outcomes("ablation_feedback", 9, 1, _profile(k_default=32))
    none = outcomes["feedback-none"]
    binary = outcomes["feedback-binary"]
    assert none.abort_rate == 0.0
    assert binary.abort_rate > 0.0
    # Binary feedback avoids shipping some payloads.
    assert binary.data_transfers < none.data_transfers or (
        binary.sessions != none.sessions
    )


# -- the readers against their plain-loop oracles -------------------------
def _assert_outcomes_match(fleet, serial):
    """Equal, except the ppm-carried RSD, which may differ by rounding."""
    assert dataclasses.replace(fleet, occurrence_rsd=0.0) == dataclasses.replace(
        serial, occurrence_rsd=0.0
    )
    assert fleet.occurrence_rsd == pytest.approx(serial.occurrence_rsd, abs=1e-6)


def test_ltnc_telemetry_equals_the_node_reads():
    spec = ScenarioSpec(
        name="ltnc-telemetry", n_nodes=10, k=32, node_kwargs={"aggressiveness": 0.01}
    )
    collector = MetricsCollector()
    sim = spec.build(5, metrics=collector)
    sim.run()
    counters = collector.snapshot()["counters"]
    stats = [node.stats for node in sim.nodes]
    for name in ("degree_picks", "first_pick_accepted", "degree_retries",
                 "builds", "build_hits", "packets_sent", "substitutions"):
        assert counters[f"ltnc:{name}"] == sum(getattr(s, name) for s in stats)
    assert counters["ltnc:packets_sent"] > 0
    deviation = sum(s.deviation_sum for s in stats)
    assert counters["ltnc:deviation_ppm"] / PPM == pytest.approx(deviation, abs=1e-5)
    rsds = [
        n.occurrences.rsd() for n in sim.nodes if n.occurrences.packets_sent >= 20
    ]
    hist = collector.snapshot()["histograms"]["ltnc:occurrence_rsd_ppm"]
    assert hist["count"] == len(rsds) > 0
    assert hist["min"] == round(min(rsds) * PPM)
    assert hist["sum"] / hist["count"] / PPM == pytest.approx(np.mean(rsds), abs=1e-6)


def test_recoding_stats_match_the_node_reads():
    fleet = _recoding_stats(6, 2, _profile(n_nodes=10, k_default=32))
    serial = serial_recoding_stats(10, 32, seed=6, monte_carlo=2)
    exact = ("first_pick_acceptance", "average_retries", "build_hit_rate",
             "packets_recoded")
    for name in exact:
        assert getattr(fleet, name) == getattr(serial, name), name
    for name in ("average_relative_deviation", "occurrence_rsd"):
        assert getattr(fleet, name) == pytest.approx(
            getattr(serial, name), abs=1e-6
        ), name
    assert 0.5 <= fleet.first_pick_acceptance <= 1.0
    assert 0.5 <= fleet.build_hit_rate <= 1.0
    assert fleet.average_relative_deviation < 0.2
    assert fleet.packets_recoded > 0
    assert fleet.occurrence_rsd >= 0.0


def test_ablation_outcomes_match_the_plain_loop():
    refine = _outcomes("ablation_refinement", 8, 2, _profile(n_nodes=10, k_default=32))
    _assert_outcomes_match(
        refine["refine-off"],
        serial_ltnc_variant("refine-off", 10, 32, 8, 2, refine=False),
    )
    feedback = _outcomes("ablation_feedback", 9, 2, _profile(k_default=32))
    _assert_outcomes_match(
        feedback["feedback-full"],
        serial_ltnc_variant("feedback-full", 8, 32, 9, 2, feedback="full"),
    )
    triggers = _outcomes("aggressiveness_sweep", 5, 2)
    _assert_outcomes_match(
        triggers["aggr-0.25"],
        serial_ltnc_variant("aggr-0.25", 8, 16, 5, 2, aggressiveness=0.25),
    )


def test_convergence_curve_from_traces_equals_the_result_series():
    curves = _curves(seed=4, n_trials=3)
    assert list(curves) == ["wc", "ltnc", "rlnc"]
    for scheme, curve in curves.items():
        series = [convergence_series(r) for r in serial_fig7(scheme, 8, 16, 3, 4)]
        padded = np.ones((3, max(map(len, series))))
        for row, s in enumerate(series):
            padded[row, : len(s)] = s
        assert np.array_equal(curve.completed_fraction, padded.mean(axis=0))
        assert curve.scheme == scheme and curve.runs == 3
        assert curve.completed_fraction[-1] == pytest.approx(1.0)
        assert 0 <= curve.time_to_fraction(0.5) <= curve.time_to_fraction(1.0)


def test_fig7_points_match_the_plain_loop():
    runs = serial_fig7("ltnc", 8, 16, 2, 3)
    cell = _run("fig7c_overhead", 3)["fig7:ltnc:n8:k16"]
    assert cell.mean("average_completion_round") == pytest.approx(
        np.mean([r.average_completion_round() for r in runs])
    )
    assert cell.mean("overhead") == pytest.approx(
        np.mean([r.overhead() for r in runs])
    )


def test_drivers_are_worker_count_invariant():
    def grid(group):
        return lambda w: {
            name: aggregate.to_dict()
            for name, aggregate in _run(group, 2, 3, n_workers=w).items()
        }

    readers = {
        "convergence": lambda w: _curves(2, 3, n_workers=w),
        "completion": grid("fig7b_completion_time"),
        "overhead": grid("fig7c_overhead"),
        "redundancy": lambda w: _outcomes("ablation_redundancy", 2, 3, n_workers=w),
        "recoding": lambda w: _recoding_stats(2, 3, n_workers=w),
    }
    for name, read in readers.items():
        assert read(1) == read(2), name


def test_a_cell_where_nothing_completes_raises_naming_it():
    stalled = {"profile": _profile(k_default=32), "max_rounds": 3}
    aggregates = _run("fig7b_completion_time", 0, **stalled)
    with pytest.raises(SimulationError, match="fig7:ltnc:n8:k32"):
        aggregates["fig7:ltnc:n8:k32"].mean("average_completion_round")
    with pytest.raises(SimulationError, match="'refine-on'"):
        _outcomes("ablation_refinement", 0, 2, **stalled)
    structure = _run("ablation_structure", 0, 1, **stalled)
    assert [a.trials[0]["rounds"] for a in structure.values()] == [3, 3]
    with pytest.raises(SimulationError, match="'structure:rndlt'"):
        structure["structure:rndlt"].mean("average_completion_round")
