"""FIG7C — communication overhead vs code length (Fig. 7c).

Paper: LTNC ships ~20 % more packets than necessary at k = 2,048, and
the overhead decreases with k.  WC and RLNC sit at exactly zero: their
innovation checks are exact, so the binary feedback aborts every
redundant transfer before the payload moves.
"""

from __future__ import annotations

from repro.scenarios import FleetRunner, expand_scenarios

from conftest import WORKERS, run_once_benchmark

PAPER_NOTE = (
    "paper (N=1000): LTNC ~20% at k=2048, decreasing with k; "
    "WC and RLNC identically 0"
)


def test_fig7c_overhead(benchmark, profile, reporter):
    n = profile.n_nodes
    ks = profile.k_sweep

    def experiment():
        cells = expand_scenarios(["fig7c_overhead"], profile)
        runner = FleetRunner(n_workers=WORKERS)
        ltnc = runner.run_grid(
            [c for c in cells if c.scheme == "ltnc"],
            profile.monte_carlo,
            master_seed=72,
        )
        # The exact-check baselines are zero in every trial: one will do.
        exact = runner.run_grid(
            [c for c in cells if c.scheme != "ltnc"], 1, master_seed=72
        )
        baselines = {
            name.removeprefix("fig7c:"): aggregate.mean("overhead")
            for name, aggregate in exact.items()
        }
        return [a.mean("overhead") for a in ltnc.values()], baselines

    ltnc, baselines = run_once_benchmark(benchmark, experiment)
    rep = reporter("fig7c_overhead")
    rep.line(f"N = {n}, binary feedback; overhead = extra data transfers / k")
    rep.line(PAPER_NOTE)
    rep.line()
    rep.table(
        ["k", "LTNC overhead"],
        [[k, f"{o * 100:.1f}%"] for k, o in zip(ks, ltnc)],
    )
    rep.line()
    for scheme, value in baselines.items():
        rep.line(f"{scheme} overhead (exact innovation check): {value * 100:.1f}%")
    rep.finish()

    # Shape: positive, decreasing with k; baselines exactly zero.
    assert all(o > 0 for o in ltnc)
    assert ltnc[-1] < ltnc[0]
    assert baselines["wc"] == 0.0
    assert baselines["rlnc"] == 0.0
