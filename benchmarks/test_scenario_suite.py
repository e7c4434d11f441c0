"""SCENARIOS — the scenario catalogue under the parallel fleet runner.

Not a paper figure: this bench exercises the workloads the paper's
testbed could not express (multihop loss heterogeneity, coded edge
caching, churn storms) next to the baseline, fanned out over worker
processes, and persists the aggregated mean/CI JSON under
``benchmarks/out/scenarios.json`` alongside the plain-text report.
"""

from __future__ import annotations

import os
import pathlib

from repro.scenarios import FleetRunner, get_preset, preset_names

from conftest import OUT_DIR, run_once_benchmark

PAPER_NOTE = (
    "beyond the paper: multihop loss (Kabore et al.), edge caching "
    "(Recayte et al.) and churn storms vs the paper's baseline"
)


def test_scenarios_catalogue(benchmark, profile, reporter):
    workers = min(4, os.cpu_count() or 1)
    runner = FleetRunner(n_workers=workers)
    trials = max(2, profile.monte_carlo)
    specs = [get_preset(name, profile) for name in preset_names()]

    def experiment():
        return runner.run_grid(specs, trials, master_seed=2010)

    aggregates = run_once_benchmark(benchmark, experiment)
    rep = reporter("scenarios")
    # Results are worker-count invariant by contract, so the report
    # does not name the host's worker count.
    rep.line(f"{trials} trials per scenario")
    rep.line(PAPER_NOTE)
    rep.line()
    rows = []
    for name in preset_names():
        summary = aggregates[name].metrics_summary()
        rows.append(
            [
                name,
                f"{summary['rounds']['mean']:.1f}",
                f"{summary['average_completion_round']['mean']:.1f}",
                f"{summary['overhead']['mean']:.3f}",
                f"{summary['lost_transfers']['mean']:.0f}",
                f"{summary['churn_events']['mean']:.1f}",
            ]
        )
    rep.table(
        ["scenario", "rounds", "avg_complete", "overhead", "lost", "churn"],
        rows,
    )
    rep.line()
    json_paths = []
    for name in preset_names():
        path = aggregates[name].write_json(
            pathlib.Path(OUT_DIR) / f"scenario_{name}.json"
        )
        json_paths.append(path.name)
    rep.line("aggregated JSON: " + ", ".join(json_paths))
    rep.finish()

    for name in preset_names():
        summary = aggregates[name].metrics_summary()
        assert summary["completed_fraction"]["mean"] == 1.0
    baseline = aggregates["baseline"].metrics_summary()
    assert (
        aggregates["edge_cache"].metrics_summary()["rounds"]["mean"]
        < baseline["rounds"]["mean"]
    )
    assert (
        aggregates["multihop_lossy"].metrics_summary()["lost_transfers"]["mean"]
        > 0
    )
    assert aggregates["churn"].metrics_summary()["churn_events"]["mean"] > 0
