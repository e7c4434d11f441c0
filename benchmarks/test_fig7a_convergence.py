"""FIG7A — convergence: proportion of decoded nodes vs time (Fig. 7a).

Paper setup: N = 1,000 nodes, k = 2,048; WC / LTNC / RLNC with binary
feedback.  Expected shape: RLNC converges first, LTNC close behind
(~30 % slower), WC far behind — coding wins, and LTNC keeps most of the
coding gain.
"""

from __future__ import annotations

import tempfile

from repro.experiments.fig7 import ConvergenceCurve
from repro.experiments.plot import ascii_chart
from repro.obs import ObsSpec
from repro.scenarios import FleetRunner, expand_scenarios

from conftest import WORKERS, run_once_benchmark

PAPER_NOTE = (
    "paper (N=1000, k=2048): RLNC fastest, LTNC slightly slower (~+30% "
    "time), WC far behind; all reach 100%"
)


def test_fig7a_convergence(benchmark, profile, reporter):
    n, k = profile.n_nodes, profile.k_default

    def experiment():
        with tempfile.TemporaryDirectory() as trace_dir:
            cells = [
                cell.with_(obs=ObsSpec(trace_dir=trace_dir))
                for cell in expand_scenarios(["fig7a_convergence"], profile)
            ]
            aggregates = FleetRunner(n_workers=WORKERS).run_grid(
                cells, profile.monte_carlo, master_seed=70
            )
            return {
                a.scenario.scheme: ConvergenceCurve.from_traces(a, trace_dir)
                for a in aggregates.values()
            }

    curves = run_once_benchmark(benchmark, experiment)
    rep = reporter("fig7a_convergence")
    rep.line(f"N = {n}, k = {k}, binary feedback")
    rep.line(PAPER_NOTE)
    rep.line()
    fractions = (0.25, 0.5, 0.75, 0.9, 1.0)
    rep.table(
        ["scheme"] + [f"t({int(100 * f)}%)" for f in fractions],
        [
            [scheme] + [curve.time_to_fraction(f) for f in fractions]
            for scheme, curve in curves.items()
        ],
    )
    rep.line()
    rep.line(
        ascii_chart(
            {
                scheme: (
                    [float(r) for r in curve.rounds],
                    [100.0 * f for f in curve.completed_fraction],
                )
                for scheme, curve in curves.items()
            },
            x_label="gossip periods",
            y_label="% of nodes complete",
        )
    )
    rep.line()
    t_full = {s: c.time_to_fraction(1.0) for s, c in curves.items()}
    slowdown = t_full["ltnc"] / t_full["rlnc"]
    rep.line(f"LTNC/RLNC full-convergence ratio: {slowdown:.2f}x "
             "(paper: ~1.3x at k=2048)")
    rep.line(f"WC/RLNC ratio: {t_full['wc'] / t_full['rlnc']:.2f}x")
    rep.finish()

    # Shape: RLNC < LTNC < WC, and every scheme finishes.
    assert t_full["rlnc"] < t_full["ltnc"] < t_full["wc"]
    for curve in curves.values():
        assert curve.completed_fraction[-1] == 1.0
