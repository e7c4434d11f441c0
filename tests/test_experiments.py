"""Tests for the experiment harnesses (small, fast configurations)."""

import pytest

from repro.errors import SimulationError
from repro.experiments import (
    PROFILES,
    average_completion_time,
    collect_recoding_stats,
    cost_series,
    current_profile,
    feedback_ablation,
    ltnc_overhead,
    measure_decoding,
    measure_recoding,
    measure_redundant_insertions,
    refinement_ablation,
    run_convergence,
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
