"""CATALOGUE — multi-content dissemination under demand, caches, striping.

Not a paper figure: the paper disseminates one content; this bench
sweeps the catalogue presets (Zipf demand, edge caches at tree roots,
generation-striped VOD) next to the single-content baseline and
reports what the catalogue dimension moves: pair-completion delay,
overhead, the fraction of data served from the edge, and the cache
hit ratio.  Zipf's head content should finish ahead of its tail, and
the edge caches should actually serve (non-zero hit ratio).
"""

from __future__ import annotations

import os

from repro.scenarios import FleetRunner, comparison_rows, expand_scenarios

from conftest import run_once_benchmark

PAPER_NOTE = (
    "beyond the paper: catalogue dissemination (Zipf demand, LRU edge "
    "caches, generation striping) vs the paper's single content"
)

TRIALS = 2

#: Report columns: (metrics_summary key, short header).  ``baseline``
#: is single-content, so its catalogue-only cells print ``n/a``.
COLUMNS = (
    ("rounds", "rounds"),
    ("average_completion_round", "avg_complete"),
    ("overhead", "overhead"),
    ("edge_served_fraction", "edge_served"),
    ("cache_hit_ratio", "cache_hit"),
)


def test_content_compare(benchmark, profile, reporter):
    workers = min(4, os.cpu_count() or 1)

    def experiment():
        return FleetRunner(n_workers=workers).run_grid(
            expand_scenarios(["content"], profile), TRIALS, master_seed=2010
        )

    aggregates = run_once_benchmark(benchmark, experiment)
    rep = reporter("content_compare")
    rep.line(f"{TRIALS} trials per catalogue")
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
    # Overlay nodes, not the origin, carry most of the catalogue traffic.
    for name in ("zipf_catalogue", "edge_cache_catalogue", "striped_vod"):
        assert summaries[name]["edge_served_fraction"]["mean"] > 0.0
    # The LRU caches at the tree roots actually serve.
    assert summaries["edge_cache_catalogue"]["cache_hit_ratio"]["mean"] > 0.0
    assert summaries["edge_cache_catalogue"]["cache_stored"]["mean"] > 0
    # Zipf demand: the head of the catalogue completes no later than
    # the tail (popularity-weighted source scheduling and more
    # interested recoders).
    zipf = summaries["zipf_catalogue"]
    head = zipf["content:c0:average_completion_round"]["mean"]
    tail = zipf["content:c3:average_completion_round"]["mean"]
    assert head <= tail
