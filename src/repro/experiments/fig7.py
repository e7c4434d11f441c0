"""Figure 7 reader — dissemination performance (§IV-B).

Three panels over the epidemic simulator:

* **7a convergence** — proportion of nodes having decoded everything,
  as a function of time, for WC / LTNC / RLNC at a fixed code length;
* **7b completion time** — average time to complete versus the code
  length k, for the three schemes;
* **7c overhead** — LTNC's communication overhead versus k (WC and
  RLNC are identically zero thanks to exact innovation checks).

Runs are repeated over Monte-Carlo seeds and averaged, mirroring the
paper's 25-run averages (scaled by profile).  Each panel's grid is a
scenario group (``fig7a_convergence``, ``fig7b_completion_time``,
``fig7c_overhead`` in :mod:`repro.scenarios.presets`) whose cells,
``fig7:<scheme>:n<N>:k<k>``, run on the
:class:`~repro.scenarios.fleet.FleetRunner`.  Panels 7b and 7c read
their means off the cells' aggregates; 7a's curve is read from the
cells' traces by :meth:`ConvergenceCurve.from_traces`.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.tracestats import rank_curve
from repro.obs.tracer import read_trace, trace_filename

__all__ = ["ConvergenceCurve"]


@dataclass
class ConvergenceCurve:
    """Averaged Fig. 7a series for one scheme."""

    scheme: str
    rounds: list[int] = field(default_factory=list)
    completed_fraction: list[float] = field(default_factory=list)
    runs: int = 0

    @classmethod
    def from_traces(cls, aggregate, trace_dir) -> "ConvergenceCurve":
        """A cell's completed-fraction series, averaged over its trials.

        *aggregate* is the cell's
        :class:`~repro.scenarios.aggregate.ScenarioAggregate` from a run
        traced into *trace_dir*; each trial's per-round completed count
        comes from its trace, and a trial that finished early counts as
        complete from then on.
        """
        spec = aggregate.scenario
        series = []
        for trial in aggregate.trials:
            path = pathlib.Path(trace_dir) / trace_filename(spec.name, trial["seed"])
            rows = rank_curve(read_trace(path))
            series.append([row["completed"] / spec.n_nodes for row in rows])
        horizon = max(len(s) for s in series)
        padded = np.ones((len(series), horizon))
        for row, s in enumerate(series):
            padded[row, : len(s)] = s
        return cls(
            spec.scheme,
            rounds=list(range(horizon)),
            completed_fraction=padded.mean(axis=0).tolist(),
            runs=len(series),
        )

    def time_to_fraction(self, fraction: float) -> int:
        """First round where at least *fraction* of nodes completed."""
        for round_index, value in zip(self.rounds, self.completed_fraction):
            if value >= fraction:
                return round_index
        return self.rounds[-1] if self.rounds else 0
