"""Ablations of LTNC's design choices.

DESIGN.md calls out three mechanisms whose value the paper argues but
does not isolate; these harnesses isolate them:

* **refinement** (Algorithm 2, §III-B3) — with refinement off, the
  native-degree distribution drifts from the Dirac and the decoder
  needs more packets;
* **redundancy detection** (Algorithm 3, §III-C1) — with detection
  off, redundant packets occupy the structures and waste XORs (see
  also :func:`repro.experiments.textstats.measure_redundant_insertions`);
* **feedback channel** (§III-C2) — none vs binary vs full changes how
  many sessions ship useless payloads.

Each variant is a cell, a :class:`~repro.scenarios.spec.ScenarioSpec`
named by its label, whose Monte-Carlo runs are trials on the
:class:`~repro.scenarios.fleet.FleetRunner`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.textstats import occurrence_rsd, run_with_telemetry
from repro.gossip.simulator import Feedback
from repro.scenarios.spec import ScenarioSpec
from repro.schemes import LTNC_AGGRESSIVENESS

__all__ = [
    "AblationOutcome",
    "run_ltnc_variant",
    "refinement_ablation",
    "feedback_ablation",
    "redundancy_ablation",
]


@dataclass(frozen=True)
class AblationOutcome:
    """Summary of one LTNC dissemination under a variant configuration."""

    label: str
    average_completion: float
    overhead: float
    abort_rate: float
    occurrence_rsd: float
    sessions: int
    data_transfers: int


def _variant(
    label: str,
    n_nodes: int,
    k: int,
    feedback: Feedback = Feedback.BINARY,
    max_rounds: int = 200_000,
    **node_kwargs: object,
) -> ScenarioSpec:
    """One ablation cell: LTNC under variant knobs, named *label*."""
    return ScenarioSpec(
        name=label,
        scheme="ltnc",
        n_nodes=n_nodes,
        k=k,
        feedback=Feedback(feedback).value,
        max_rounds=max_rounds,
        node_kwargs={"aggressiveness": LTNC_AGGRESSIVENESS, **node_kwargs},
    )


def _outcomes(
    cells: list[ScenarioSpec], seed: int, monte_carlo: int, n_workers: int
) -> dict[str, AblationOutcome]:
    """Run the cells on the fleet and summarize each one's §IV-B metrics."""
    aggregates, telemetry = run_with_telemetry(cells, monte_carlo, seed, n_workers)
    return {
        label: AblationOutcome(
            label=label,
            average_completion=aggregate.mean("average_completion_round"),
            overhead=aggregate.mean("overhead"),
            abort_rate=aggregate.mean("abort_rate"),
            occurrence_rsd=occurrence_rsd(telemetry[label]),
            sessions=sum(aggregate.metric_values("sessions")),
            data_transfers=sum(aggregate.metric_values("data_transfers")),
        )
        for label, aggregate in aggregates.items()
    }


def run_ltnc_variant(
    label: str,
    n_nodes: int,
    k: int,
    seed: int = 0,
    feedback: Feedback = Feedback.BINARY,
    monte_carlo: int = 2,
    max_rounds: int = 200_000,
    n_workers: int = 1,
    **node_kwargs: object,
) -> AblationOutcome:
    """Run LTNC with variant node knobs and summarize the §IV-B metrics."""
    cell = _variant(label, n_nodes, k, feedback, max_rounds, **node_kwargs)
    return _outcomes([cell], seed, monte_carlo, n_workers)[label]


def refinement_ablation(
    n_nodes: int = 24,
    k: int = 96,
    seed: int = 0,
    monte_carlo: int = 2,
    n_workers: int = 1,
) -> dict[str, AblationOutcome]:
    """Algorithm 2 on vs off."""
    cells = [
        _variant("refine-on", n_nodes, k, refine=True),
        _variant("refine-off", n_nodes, k, refine=False),
    ]
    return _outcomes(cells, seed, monte_carlo, n_workers)


def redundancy_ablation(
    n_nodes: int = 24,
    k: int = 96,
    seed: int = 0,
    monte_carlo: int = 2,
    n_workers: int = 1,
) -> dict[str, AblationOutcome]:
    """Algorithm 3 as drop policy, on vs off.

    The binary feedback header check stays on in both arms (it is a
    transport feature); the ablated mechanism is the *storage-side*
    filtering of packets at reception and during decoding.
    """
    cells = [
        _variant("detect-on", n_nodes, k, detect_redundancy=True),
        _variant("detect-off", n_nodes, k, detect_redundancy=False),
    ]
    return _outcomes(cells, seed, monte_carlo, n_workers)


def feedback_ablation(
    n_nodes: int = 24,
    k: int = 96,
    seed: int = 0,
    monte_carlo: int = 2,
    n_workers: int = 1,
) -> dict[str, AblationOutcome]:
    """Transport feedback: none vs binary vs full (§III-C2)."""
    cells = [
        _variant(f"feedback-{mode.value}", n_nodes, k, feedback=mode)
        for mode in (Feedback.NONE, Feedback.BINARY, Feedback.FULL)
    ]
    outcomes = _outcomes(cells, seed, monte_carlo, n_workers)
    return {
        label.removeprefix("feedback-"): outcome
        for label, outcome in outcomes.items()
    }
