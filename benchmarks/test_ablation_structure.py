"""ABL3 — structure preservation: LTNC vs random recoding of LT packets.

The paper's central claim (§III, §V): network coding over LT packets is
only BP-decodable if recoding *preserves* the Robust Soliton structure;
random recoding (prior art: Raptor network coding [9]) forces receivers
back to Gaussian reduction.  This bench pits LTNC against an identical
node whose only difference is random recoding, with both decoded by
belief propagation — the dissemination slows by an order of magnitude
or stalls.
"""

from __future__ import annotations

from repro.scenarios import FleetRunner, expand_scenarios

from conftest import WORKERS, run_once_benchmark


def test_ablation_structure(benchmark, profile, reporter):
    n, k = profile.n_nodes, profile.k_default

    def experiment():
        # One trial per cell, over a bounded horizon: random recoding
        # may stall outright, which the report treats as the (even
        # stronger) expected outcome.
        aggregates = FleetRunner(n_workers=WORKERS).run_grid(
            expand_scenarios(["ablation_structure"], profile), 1, master_seed=96
        )
        return {
            name.removeprefix("structure:"): aggregate.trials[0]
            for name, aggregate in aggregates.items()
        }

    results = run_once_benchmark(benchmark, experiment)
    rep = reporter("ablation_structure")
    rep.line(f"N = {n}, k = {k}; identical nodes, only recoding differs")
    rep.line("paper (§V): random recoding of LT packets breaks belief "
             "propagation (prior art must fall back to Gauss)")
    rep.line()
    rows = []
    for scheme, trial in results.items():
        done = trial["completed_fraction"]
        avg = (
            f"{trial['average_completion_round']:.0f}"
            if trial["completed"]
            else "stalled"
        )
        rows.append([scheme, f"{done * 100:.0f}%", avg, trial["rounds"]])
    rep.table(["recoding", "nodes done", "avg completion", "rounds run"], rows)
    rep.line()
    ltnc, rndlt = results["ltnc"], results["rndlt"]
    if rndlt["completed"]:
        factor = (
            rndlt["average_completion_round"]
            / ltnc["average_completion_round"]
        )
        rep.line(f"slowdown from destroying the LT structure: {factor:.1f}x")
    else:
        rep.line("random recoding stalled within the horizon")
    rep.finish()

    assert ltnc["completed"] == n
    if rndlt["completed"] == n:
        assert (
            rndlt["average_completion_round"]
            > 2.0 * ltnc["average_completion_round"]
        )
