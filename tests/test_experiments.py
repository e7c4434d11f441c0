"""Tests for the experiment harnesses (small, fast configurations)."""

import dataclasses

import numpy as np
import pytest

from repro.core.node import PPM
from repro.errors import SimulationError
from repro.experiments.ablations import (
    feedback_ablation,
    redundancy_ablation,
    refinement_ablation,
    run_ltnc_variant,
)
from repro.experiments.fig7 import (
    average_completion_time,
    ltnc_overhead,
    run_convergence,
)
from repro.experiments.fig8 import cost_series, measure_decoding, measure_recoding
from repro.experiments.scale import PROFILES, current_profile
from repro.experiments.textstats import (
    collect_recoding_stats,
    measure_redundant_insertions,
)
from repro.obs import MetricsCollector
from repro.scenarios import ScenarioSpec

from oracles import (
    serial_fig7,
    serial_ltnc_variant,
    serial_recoding_stats,
)


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


def test_run_convergence_curve():
    curve = run_convergence(
        "ltnc", n_nodes=8, k=16, monte_carlo=2, seed=0, max_rounds=4000
    )
    assert curve.scheme == "ltnc"
    assert curve.completed_fraction[-1] == pytest.approx(1.0)
    mid = curve.time_to_fraction(0.5)
    end = curve.time_to_fraction(1.0)
    assert 0 <= mid <= end


def test_average_completion_ordering():
    rlnc = average_completion_time(
        "rlnc", n_nodes=8, k=16, monte_carlo=2, seed=1, max_rounds=4000
    )
    wc = average_completion_time(
        "wc", n_nodes=8, k=16, monte_carlo=2, seed=1, max_rounds=4000
    )
    assert rlnc < wc


def test_ltnc_overhead_positive():
    overhead = ltnc_overhead(
        n_nodes=8, k=32, monte_carlo=2, seed=2, max_rounds=8000
    )
    assert overhead > 0.0


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


def test_collect_recoding_stats():
    stats = collect_recoding_stats(n_nodes=10, k=32, seed=6)
    assert 0.5 <= stats.first_pick_acceptance <= 1.0
    assert 0.5 <= stats.build_hit_rate <= 1.0
    assert stats.average_relative_deviation < 0.2
    assert stats.packets_recoded > 0
    assert stats.occurrence_rsd >= 0.0


def test_measure_redundant_insertions():
    stats = measure_redundant_insertions(k=48, stream_length=150, seed=7)
    assert stats.stream_length == 150
    # Detection must never *increase* redundant insertions.
    assert stats.redundant_inserted_with <= stats.redundant_inserted_without
    assert 0.0 <= stats.reduction <= 1.0


def test_refinement_ablation_lowers_rsd():
    outcomes = refinement_ablation(n_nodes=10, k=48, seed=8, monte_carlo=1)
    assert (
        outcomes["refine-on"].occurrence_rsd
        < outcomes["refine-off"].occurrence_rsd
    )


def test_feedback_ablation_none_ships_all():
    outcomes = feedback_ablation(n_nodes=8, k=32, seed=9, monte_carlo=1)
    none = outcomes["none"]
    binary = outcomes["binary"]
    assert none.abort_rate == 0.0
    assert binary.abort_rate > 0.0
    # Binary feedback avoids shipping some payloads.
    assert binary.data_transfers < none.data_transfers or (
        binary.sessions != none.sessions
    )


# -- the drivers against their plain-loop oracles -------------------------
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
    fleet = collect_recoding_stats(n_nodes=10, k=32, seed=6, monte_carlo=2)
    serial = serial_recoding_stats(10, 32, seed=6, monte_carlo=2)
    exact = ("first_pick_acceptance", "average_retries", "build_hit_rate",
             "packets_recoded")
    for name in exact:
        assert getattr(fleet, name) == getattr(serial, name), name
    for name in ("average_relative_deviation", "occurrence_rsd"):
        assert getattr(fleet, name) == pytest.approx(
            getattr(serial, name), abs=1e-6
        ), name


def test_ablation_outcomes_match_the_plain_loop():
    _assert_outcomes_match(
        run_ltnc_variant("refine-off", 10, 32, seed=8, monte_carlo=2, refine=False),
        serial_ltnc_variant("refine-off", 10, 32, 8, 2, refine=False),
    )
    full = feedback_ablation(n_nodes=8, k=32, seed=9, monte_carlo=2)["full"]
    _assert_outcomes_match(
        full, serial_ltnc_variant("feedback-full", 8, 32, 9, 2, feedback="full")
    )


def test_convergence_curve_from_traces_equals_the_result_series():
    for scheme in ("wc", "ltnc", "rlnc"):
        curve = run_convergence(scheme, n_nodes=8, k=16, monte_carlo=3, seed=4)
        series = [r.series_completed for r in serial_fig7(scheme, 8, 16, 3, 4)]
        padded = np.ones((3, max(map(len, series))))
        for row, s in enumerate(series):
            padded[row, : len(s)] = s
        assert np.array_equal(curve.completed_fraction, padded.mean(axis=0))


def test_fig7_points_match_the_plain_loop():
    runs = serial_fig7("ltnc", 8, 16, 2, 3)
    assert average_completion_time(
        "ltnc", n_nodes=8, k=16, monte_carlo=2, seed=3
    ) == pytest.approx(np.mean([r.average_completion_round() for r in runs]))
    assert ltnc_overhead(n_nodes=8, k=16, monte_carlo=2, seed=3) == pytest.approx(
        np.mean([r.overhead() for r in runs])
    )


def test_drivers_are_worker_count_invariant():
    drivers = {
        "convergence": lambda w: run_convergence(
            "ltnc", 8, 16, monte_carlo=3, seed=2, n_workers=w
        ),
        "completion": lambda w: average_completion_time(
            "rlnc", 8, 16, monte_carlo=3, seed=2, n_workers=w
        ),
        "overhead": lambda w: ltnc_overhead(8, 16, monte_carlo=3, seed=2, n_workers=w),
        "redundancy": lambda w: redundancy_ablation(
            8, 16, seed=2, monte_carlo=3, n_workers=w
        ),
        "recoding": lambda w: collect_recoding_stats(
            8, 16, seed=2, monte_carlo=3, n_workers=w
        ),
    }
    for name, driver in drivers.items():
        assert driver(1) == driver(2), name


def test_a_cell_where_nothing_completes_raises_naming_it():
    with pytest.raises(SimulationError, match="fig7:ltnc:n8:k32"):
        average_completion_time("ltnc", n_nodes=8, k=32, monte_carlo=2, max_rounds=3)
    with pytest.raises(SimulationError, match="'stalled'"):
        run_ltnc_variant("stalled", 8, 32, monte_carlo=2, max_rounds=3)
