"""ABL2 — feedback channel: none vs binary vs full (§III-C2).

Binary feedback aborts transfers of detected-redundant packets (saving
payload bytes); full feedback lets the sender construct guaranteed-
innovative degree-1/2 packets (saving whole sessions).  Expected:
binary ships fewer payloads than none; full wastes fewer sessions than
binary.
"""

from __future__ import annotations

from repro.experiments.ablations import AblationOutcome
from repro.experiments.textstats import run_with_telemetry
from repro.scenarios import expand_scenarios

from conftest import WORKERS, run_once_benchmark


def test_ablation_feedback(benchmark, profile, reporter):
    n, k = profile.n_nodes, profile.k_default

    def experiment():
        aggregates, telemetry = run_with_telemetry(
            expand_scenarios(["ablation_feedback"], profile),
            profile.monte_carlo,
            94,
            WORKERS,
        )
        return {
            name.removeprefix("feedback-"): AblationOutcome.from_run(
                aggregate, telemetry[name]
            )
            for name, aggregate in aggregates.items()
        }

    outcomes = run_once_benchmark(benchmark, experiment)
    rep = reporter("ablation_feedback")
    rep.line(f"N = {n}, k = {k}")
    rep.line("§III-C2: binary feedback saves payloads; full saves sessions")
    rep.line()
    rep.table(
        ["feedback", "avg completion", "overhead", "abort rate", "data/sessions"],
        [
            [
                label,
                f"{o.average_completion:.0f}",
                f"{o.overhead * 100:.1f}%",
                f"{o.abort_rate * 100:.1f}%",
                f"{o.data_transfers}/{o.sessions}",
            ]
            for label, o in outcomes.items()
        ],
    )
    rep.finish()

    none, binary, full = (
        outcomes["none"],
        outcomes["binary"],
        outcomes["full"],
    )
    # Binary aborts redundant payloads; none ships everything.
    assert none.abort_rate == 0.0
    assert binary.abort_rate > 0.0
    # Full feedback's smart construction must not waste *more* sessions
    # than binary, and should not slow convergence.
    assert full.average_completion <= binary.average_completion * 1.2
