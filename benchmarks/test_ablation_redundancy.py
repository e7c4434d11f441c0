"""TXT4/ABL — redundancy detection (Algorithm 3) on vs off.

Beyond the TXT4 insertion count (see test_text_stats), this ablation
measures the system-level effect of the storage-side filter on a full
dissemination: fewer useless packets in the structures and no harm to
convergence.
"""

from __future__ import annotations

from repro.experiments.ablations import AblationOutcome
from repro.experiments.textstats import run_with_telemetry
from repro.scenarios import expand_scenarios

from conftest import WORKERS, run_once_benchmark


def test_ablation_redundancy(benchmark, profile, reporter):
    n, k = profile.n_nodes, profile.k_default

    def experiment():
        aggregates, telemetry = run_with_telemetry(
            expand_scenarios(["ablation_redundancy"], profile),
            profile.monte_carlo,
            93,
            WORKERS,
        )
        return {
            name: AblationOutcome.from_run(aggregate, telemetry[name])
            for name, aggregate in aggregates.items()
        }

    outcomes = run_once_benchmark(benchmark, experiment)
    rep = reporter("ablation_redundancy")
    rep.line(f"N = {n}, k = {k}, binary feedback")
    rep.line("paper (§III-C1): detection cuts redundant insertions by 31%")
    rep.line()
    rep.table(
        ["variant", "avg completion", "overhead", "abort rate"],
        [
            [
                label,
                f"{o.average_completion:.0f}",
                f"{o.overhead * 100:.1f}%",
                f"{o.abort_rate * 100:.1f}%",
            ]
            for label, o in outcomes.items()
        ],
    )
    rep.finish()

    on, off = outcomes["detect-on"], outcomes["detect-off"]
    # Detection must not slow convergence down materially.
    assert on.average_completion <= off.average_completion * 1.25
