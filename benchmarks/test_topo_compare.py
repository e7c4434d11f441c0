"""TOPOLOGIES — dissemination delay/overhead across overlay shapes.

Not a paper figure: the paper gossips over a uniform overlay; this
bench sweeps the same LTNC dissemination across the graph-structured
presets (powerline line, scale-free P2P, sensor grid, small-world)
next to the uniform baseline, and reports how overlay shape moves
completion delay and overhead.  The diameter-bound feeder line should
be the slowest; small-world shortcuts should land closest to uniform.
"""

from __future__ import annotations

import os

from repro.experiments.topo_compare import comparison_rows, run_topo_compare

from conftest import run_once_benchmark

PAPER_NOTE = (
    "beyond the paper: structured overlays (grid / line / scale-free / "
    "small-world) vs the paper's uniform peer sampling"
)

TRIALS = 2


def test_topo_compare(benchmark, profile, reporter):
    workers = min(4, os.cpu_count() or 1)

    def experiment():
        return run_topo_compare(
            n_trials=TRIALS,
            master_seed=2010,
            n_workers=workers,
            profile=profile,
        )

    aggregates = run_once_benchmark(benchmark, experiment)
    rep = reporter("topo_compare")
    rep.line(f"{TRIALS} trials per overlay")
    rep.line(PAPER_NOTE)
    rep.line()
    header, rows = comparison_rows(aggregates)
    rep.table(header, rows)
    rep.finish()

    summaries = {
        name: aggregate.metrics_summary()
        for name, aggregate in aggregates.items()
    }
    for name, summary in summaries.items():
        assert summary["completed_fraction"]["mean"] == 1.0, name
    # The feeder line is diameter-bound: slowest of the sweep.
    line_rounds = summaries["powerline_multihop"]["rounds"]["mean"]
    assert line_rounds > summaries["smallworld_gossip"]["rounds"]["mean"]
    assert line_rounds > summaries["baseline"]["rounds"]["mean"]
    # Hop-derived loss actually bites on the multihop overlays.
    assert summaries["powerline_multihop"]["lost_transfers"]["mean"] > 0
    assert summaries["sensor_grid"]["lost_transfers"]["mean"] > 0
