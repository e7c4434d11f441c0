"""FIG7B — average time to complete vs code length (Fig. 7b).

Paper sweep: k in 512..4,096 at N = 1,000.  Expected shape: at every k
the ordering is RLNC < LTNC << WC, and the LTNC/RLNC gap narrows as k
grows.
"""

from __future__ import annotations

from repro.scenarios import FleetRunner, expand_scenarios

from conftest import WORKERS, run_once_benchmark

PAPER_NOTE = (
    "paper (N=1000, k=512..4096): RLNC < LTNC << WC at every k; the "
    "LTNC overhead relative to RLNC shrinks with k"
)


def test_fig7b_completion_time(benchmark, profile, reporter):
    n = profile.n_nodes
    ks = profile.k_sweep

    def experiment():
        aggregates = FleetRunner(n_workers=WORKERS).run_grid(
            expand_scenarios(["fig7b_completion_time"], profile),
            profile.monte_carlo,
            master_seed=71,
        )
        table = {}
        for aggregate in aggregates.values():  # scheme-major, k ascending
            table.setdefault(aggregate.scenario.scheme, []).append(
                aggregate.mean("average_completion_round")
            )
        return table

    table = run_once_benchmark(benchmark, experiment)
    rep = reporter("fig7b_completion_time")
    rep.line(f"N = {n}, binary feedback; gossip periods to completion")
    rep.line(PAPER_NOTE)
    rep.line()
    rep.table(
        ["k"] + list(table),
        [
            [k] + [f"{table[s][i]:.0f}" for s in table]
            for i, k in enumerate(ks)
        ],
    )
    rep.line()
    ratios = [table["ltnc"][i] / table["rlnc"][i] for i in range(len(ks))]
    rep.line(
        "LTNC/RLNC ratio per k: "
        + ", ".join(f"{k}: {r:.2f}x" for k, r in zip(ks, ratios))
    )
    rep.finish()

    for i in range(len(ks)):
        assert table["rlnc"][i] < table["ltnc"][i] < table["wc"][i]
    # The gap to RLNC must shrink with k (allow small non-monotone noise
    # between adjacent points; compare the ends of the sweep).
    assert ratios[-1] < ratios[0]
