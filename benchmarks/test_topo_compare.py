"""TOPOLOGIES — dissemination delay/overhead across overlay shapes.

Not a paper figure: the paper gossips over a uniform overlay; this
bench sweeps the same LTNC dissemination across the graph-structured
presets (powerline line, scale-free P2P, sensor grid, small-world)
next to the uniform baseline, and reports how overlay shape moves
completion delay and overhead.  The diameter-bound feeder line should
be the slowest; small-world shortcuts should land closest to uniform.
"""

from __future__ import annotations


from repro.scenarios import FleetRunner, comparison_rows, expand_scenarios

from conftest import WORKERS, run_once_benchmark

PAPER_NOTE = (
    "beyond the paper: structured overlays (grid / line / scale-free / "
    "small-world) vs the paper's uniform peer sampling"
)

TRIALS = 2

#: Report columns: (metrics_summary key, short header).
COLUMNS = (
    ("rounds", "rounds"),
    ("average_completion_round", "avg_complete"),
    ("overhead", "overhead"),
    ("lost_transfers", "lost"),
    ("aborted", "aborted"),
)


def test_topo_compare(benchmark, profile, reporter):

    def experiment():
        return FleetRunner(n_workers=WORKERS).run_grid(
            expand_scenarios(["topology"], profile), TRIALS, master_seed=2010
        )

    aggregates = run_once_benchmark(benchmark, experiment)
    rep = reporter("topo_compare")
    rep.line(f"{TRIALS} trials per overlay")
    rep.line(PAPER_NOTE)
    rep.line()
    header, rows = comparison_rows(aggregates, COLUMNS)
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
