"""Integration tests for the epidemic dissemination simulator."""

import numpy as np
import pytest

from repro.coding.packet import make_content
from repro.errors import SimulationError
from repro.gossip import (
    EpidemicSimulator,
    Feedback,
    ViewSampler,
    run_dissemination,
)

from oracles import convergence_series


def test_rejects_bad_config():
    with pytest.raises(SimulationError):
        EpidemicSimulator("ltnc", 1, 8)
    with pytest.raises(SimulationError):
        EpidemicSimulator("ltnc", 4, 8, source_pushes=0)
    with pytest.raises(SimulationError):
        EpidemicSimulator("bogus", 4, 8)


@pytest.mark.parametrize("scheme", ["wc", "rlnc", "ltnc"])
def test_all_schemes_converge_symbolic(scheme):
    result = run_dissemination(
        scheme, n_nodes=12, k=24, seed=1, max_rounds=4000
    )
    assert result.all_complete
    assert result.rounds <= 4000
    assert result.sessions >= result.data_transfers
    assert result.data_transfers == (
        result.useful_transfers + result.redundant_transfers
    )


@pytest.mark.parametrize("scheme", ["wc", "rlnc", "ltnc"])
def test_content_recovered_bit_for_bit(scheme):
    k, m = 16, 8
    content = make_content(k, m, rng=2)
    sim = EpidemicSimulator(
        scheme, n_nodes=8, k=k, content=content, seed=3, max_rounds=4000
    )
    result = sim.run()
    assert result.all_complete
    for node in sim.nodes:
        assert np.array_equal(node.decoded_content(), content)


def test_exact_detection_gives_zero_overhead():
    """WC and RLNC abort every redundant transfer: overhead 0 (§IV-B)."""
    for scheme in ("wc", "rlnc"):
        result = run_dissemination(
            scheme, n_nodes=10, k=16, seed=4, max_rounds=4000
        )
        assert result.all_complete
        assert result.overhead() == 0.0


def test_ltnc_overhead_positive_but_bounded():
    result = run_dissemination(
        "ltnc", n_nodes=16, k=64, seed=5, max_rounds=8000
    )
    assert result.all_complete
    assert 0.0 < result.overhead() < 2.5


def test_scheme_ordering_matches_paper():
    """RLNC fastest, LTNC close behind, WC far behind (Fig. 7a/7b)."""
    times = {}
    for scheme in ("wc", "rlnc", "ltnc"):
        result = run_dissemination(
            scheme, n_nodes=16, k=32, seed=6, max_rounds=8000
        )
        assert result.all_complete
        times[scheme] = result.average_completion_round()
    assert times["rlnc"] < times["ltnc"] < times["wc"]


def test_feedback_none_ships_everything():
    result = run_dissemination(
        "ltnc",
        n_nodes=8,
        k=16,
        seed=7,
        feedback=Feedback.NONE,
        max_rounds=4000,
    )
    assert result.all_complete
    assert result.aborted == 0
    assert result.data_transfers == result.sessions


def test_full_feedback_no_slower_than_binary():
    rounds = {}
    for feedback in (Feedback.BINARY, Feedback.FULL):
        result = run_dissemination(
            "ltnc",
            n_nodes=12,
            k=48,
            seed=8,
            feedback=feedback,
            max_rounds=8000,
        )
        assert result.all_complete
        rounds[feedback] = result.average_completion_round()
    # Smart construction targets innovative packets; it must not hurt.
    assert rounds[Feedback.FULL] <= rounds[Feedback.BINARY] * 1.3


def test_convergence_series_monotone():
    result = run_dissemination(
        "ltnc", n_nodes=10, k=24, seed=9, max_rounds=4000
    )
    series = convergence_series(result)
    assert all(b >= a for a, b in zip(series, series[1:]))
    assert series[-1] == 1.0
    assert len(series) == result.rounds


def test_view_sampler_network_still_converges():
    sampler = ViewSampler(12, view_size=4, renewal_period=2, rng=10)
    result = run_dissemination(
        "ltnc", n_nodes=12, k=24, seed=11, sampler=sampler, max_rounds=6000
    )
    assert result.all_complete


def test_deterministic_given_seed():
    a = run_dissemination("ltnc", n_nodes=8, k=16, seed=12, max_rounds=4000)
    b = run_dissemination("ltnc", n_nodes=8, k=16, seed=12, max_rounds=4000)
    assert a.rounds == b.rounds
    assert a.sessions == b.sessions
    assert a.completion_rounds == b.completion_rounds


def test_counters_collected():
    result = run_dissemination(
        "ltnc", n_nodes=8, k=16, seed=13, max_rounds=4000
    )
    assert result.decode_ops.get("bp_edge") > 0
    assert result.recode_ops.get("rng_draw") > 0


def test_aggressiveness_delays_recoding():
    eager = run_dissemination(
        "ltnc",
        n_nodes=10,
        k=32,
        seed=14,
        node_kwargs={"aggressiveness": 0.01},
        max_rounds=8000,
    )
    lazy = run_dissemination(
        "ltnc",
        n_nodes=10,
        k=32,
        seed=14,
        node_kwargs={"aggressiveness": 0.9},
        max_rounds=8000,
    )
    assert eager.all_complete and lazy.all_complete
    # Waiting for 90 % of the content before helping slows the epidemic.
    assert eager.average_completion_round() < lazy.average_completion_round()
