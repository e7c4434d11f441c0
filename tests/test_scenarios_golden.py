"""Golden regression tests for the scenario presets.

Each preset runs its ``quick`` profile with a pinned seed; the key
metrics are asserted against checked-in golden values with tolerances
wide enough to absorb cross-platform numpy stream differences but
tight enough to catch a changed default, a broken channel hook, or a
reshuffled seed tree.  Structural expectations (churn storms actually
churn, multihop links actually lose, warm caches actually help) are
asserted exactly.
"""

import pytest

from repro.experiments.scale import PROFILES
from repro.scenarios import FleetRunner, get_preset

QUICK = PROFILES["quick"]
SEED = 2010
TRIALS = 3

#: mean over 3 pinned-seed quick trials, recorded at introduction time.
GOLDEN = {
    "baseline": {"rounds": 66.67, "average_completion_round": 52.31, "overhead": 0.8663},
    "multihop_lossy": {"rounds": 80.67, "average_completion_round": 57.33, "overhead": 1.0868},
    "edge_cache": {"rounds": 45.67, "average_completion_round": 28.33, "overhead": 0.6259},
    "churn": {"rounds": 90.67, "average_completion_round": 58.47, "overhead": 0.7483},
    "powerline_multihop": {"rounds": 93.33, "average_completion_round": 71.19, "overhead": 1.2856},
    "scalefree_p2p": {"rounds": 103.67, "average_completion_round": 66.92, "overhead": 0.9175},
    "sensor_grid": {"rounds": 87.67, "average_completion_round": 62.72, "overhead": 1.1562},
    "smallworld_gossip": {"rounds": 73.33, "average_completion_round": 55.89, "overhead": 0.9349},
    "zipf_catalogue": {"rounds": 156.00, "average_completion_round": 80.40, "overhead": 0.9175},
    "edge_cache_catalogue": {"rounds": 169.00, "average_completion_round": 96.08, "overhead": 0.9948},
    "striped_vod": {"rounds": 286.67, "average_completion_round": 177.65, "overhead": 1.0616},
    "sparse_rlnc": {"rounds": 73.00, "average_completion_round": 45.97, "overhead": 0.0},
    "large_overlay": {"rounds": 77.67, "average_completion_round": 43.48, "overhead": 1.1806},
}


@pytest.fixture(scope="module")
def aggregates():
    runner = FleetRunner(n_workers=1)
    specs = [get_preset(name, QUICK) for name in GOLDEN]
    return runner.run_grid(specs, TRIALS, master_seed=SEED)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_completes_fully(aggregates, name):
    summary = aggregates[name].metrics_summary()
    assert summary["completed_fraction"]["mean"] == 1.0
    assert summary["completed_fraction"]["min"] == 1.0


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_preset_matches_golden_metrics(aggregates, name):
    summary = aggregates[name].metrics_summary()
    golden = GOLDEN[name]
    assert summary["rounds"]["mean"] == pytest.approx(golden["rounds"], rel=0.35)
    assert summary["average_completion_round"]["mean"] == pytest.approx(
        golden["average_completion_round"], rel=0.35
    )
    assert summary["overhead"]["mean"] == pytest.approx(
        golden["overhead"], rel=0.5
    )


def test_churn_preset_actually_churns(aggregates):
    summary = aggregates["churn"].metrics_summary()
    assert summary["churn_events"]["min"] >= 1


def test_multihop_preset_actually_loses(aggregates):
    summary = aggregates["multihop_lossy"].metrics_summary()
    assert summary["lost_transfers"]["min"] >= 1
    # Lossy links slow dissemination relative to the clean baseline.
    baseline = aggregates["baseline"].metrics_summary()
    assert summary["rounds"]["mean"] > baseline["rounds"]["mean"]


def test_edge_cache_preset_beats_cold_start(aggregates):
    cached = aggregates["edge_cache"].metrics_summary()
    baseline = aggregates["baseline"].metrics_summary()
    assert cached["rounds"]["mean"] < baseline["rounds"]["mean"]
    assert cached["overhead"]["mean"] < baseline["overhead"]["mean"]


def test_multihop_topology_presets_actually_lose(aggregates):
    # Hop-derived loss must bite on every lossy structured overlay.
    for name in ("powerline_multihop", "sensor_grid"):
        summary = aggregates[name].metrics_summary()
        assert summary["lost_transfers"]["min"] >= 1


def test_smallworld_shortcuts_beat_the_feeder_line(aggregates):
    # Small-world rewiring + escapes must outrun the diameter-bound line.
    smallworld = aggregates["smallworld_gossip"].metrics_summary()
    line = aggregates["powerline_multihop"].metrics_summary()
    assert smallworld["rounds"]["mean"] < line["rounds"]["mean"]


def test_sparse_rlnc_exact_check_means_zero_overhead(aggregates):
    # The density-limited scheme inherits RLNC's exact innovation
    # check, so under binary feedback its overhead is identically zero
    # (§IV-B) — an exact structural property, not a tolerance.
    summary = aggregates["sparse_rlnc"].metrics_summary()
    assert summary["overhead"]["max"] == 0.0


def test_catalogue_presets_complete_every_content(aggregates):
    # Per-content completion, not just the aggregate, must reach 1.0.
    for name in ("zipf_catalogue", "edge_cache_catalogue", "striped_vod"):
        summary = aggregates[name].metrics_summary()
        spec = aggregates[name].scenario
        for content in spec.content.resolve(spec.k, spec.scheme):
            key = f"content:{content.name}:completed_fraction"
            assert summary[key]["mean"] == 1.0, (name, key)


def test_zipf_head_completes_no_later_than_tail(aggregates):
    # Popularity-weighted origin scheduling plus more interested
    # recoders: the catalogue's head must not lag its tail.
    summary = aggregates["zipf_catalogue"].metrics_summary()
    head = summary["content:c0:average_completion_round"]["mean"]
    tail = summary["content:c3:average_completion_round"]["mean"]
    assert head <= tail


def test_edge_caches_actually_serve(aggregates):
    summary = aggregates["edge_cache_catalogue"].metrics_summary()
    assert summary["cache_hit_ratio"]["min"] > 0.0
    assert summary["cache_stored"]["min"] > 0
    # Catalogue traffic is carried by the overlay, not the origin alone.
    assert summary["edge_served_fraction"]["min"] > 0.0
