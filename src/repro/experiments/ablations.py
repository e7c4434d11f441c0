"""Ablations of LTNC's design choices.

DESIGN.md calls out three mechanisms whose value the paper argues but
does not isolate; the ablation groups of :mod:`repro.scenarios.presets`
isolate them:

* **refinement** (Algorithm 2, §III-B3; ``ablation_refinement``) —
  with refinement off, the native-degree distribution drifts from the
  Dirac and the decoder needs more packets;
* **redundancy detection** (Algorithm 3, §III-C1;
  ``ablation_redundancy``) — with detection off, redundant packets
  occupy the structures and waste XORs (see also
  :func:`repro.experiments.textstats.measure_redundant_insertions`);
* **feedback channel** (§III-C2; ``ablation_feedback``) — none vs
  binary vs full changes how many sessions ship useless payloads.

The structure ablation (``ablation_structure``) and the
aggressiveness sweep (``aggressiveness_sweep``) are groups too.  Each
variant is a cell named by its label; :class:`AblationOutcome` reads
one cell's §IV-B summary off its fleet aggregate and telemetry
section (:func:`~repro.experiments.textstats.run_with_telemetry`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.textstats import occurrence_rsd

__all__ = ["AblationOutcome"]


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

    @classmethod
    def from_run(cls, aggregate, section: dict[str, object]) -> "AblationOutcome":
        """One cell's summary: means over its trial records, session and
        transfer totals, and TXT3 from its telemetry *section*.

        Raises naming the cell if a trial completed no node.
        """
        return cls(
            label=aggregate.scenario.name,
            average_completion=aggregate.mean("average_completion_round"),
            overhead=aggregate.mean("overhead"),
            abort_rate=aggregate.mean("abort_rate"),
            occurrence_rsd=occurrence_rsd(section),
            sessions=sum(aggregate.metric_values("sessions")),
            data_transfers=sum(aggregate.metric_values("data_transfers")),
        )
