"""ABL1 — refinement (Algorithm 2) on vs off.

The paper argues refinement keeps the native-degree distribution near a
Dirac so belief propagation stays efficient (§III-B3) but never
isolates it.  This ablation does: with refinement off the occurrence
RSD inflates, and the decoder needs more packets (higher overhead).
"""

from __future__ import annotations

from repro.experiments.ablations import AblationOutcome
from repro.experiments.textstats import run_with_telemetry
from repro.scenarios import expand_scenarios

from conftest import WORKERS, run_once_benchmark


def test_ablation_refinement(benchmark, profile, reporter):
    n, k = profile.n_nodes, profile.k_default

    def experiment():
        aggregates, telemetry = run_with_telemetry(
            expand_scenarios(["ablation_refinement"], profile),
            profile.monte_carlo,
            92,
            WORKERS,
        )
        return {
            name: AblationOutcome.from_run(aggregate, telemetry[name])
            for name, aggregate in aggregates.items()
        }

    outcomes = run_once_benchmark(benchmark, experiment)
    rep = reporter("ablation_refinement")
    rep.line(f"N = {n}, k = {k}, binary feedback")
    rep.line("design claim (§III-B3): refinement flattens native degrees")
    rep.line()
    rep.table(
        ["variant", "occurrence RSD", "overhead", "avg completion"],
        [
            [
                label,
                f"{o.occurrence_rsd * 100:.2f}%",
                f"{o.overhead * 100:.1f}%",
                f"{o.average_completion:.0f}",
            ]
            for label, o in outcomes.items()
        ],
    )
    rep.finish()

    on, off = outcomes["refine-on"], outcomes["refine-off"]
    assert on.occurrence_rsd < off.occurrence_rsd
