"""Figure 7 harness — dissemination performance (§IV-B).

Three panels over the epidemic simulator:

* **7a convergence** — proportion of nodes having decoded everything,
  as a function of time, for WC / LTNC / RLNC at a fixed code length;
* **7b completion time** — average time to complete versus the code
  length k, for the three schemes;
* **7c overhead** — LTNC's communication overhead versus k (WC and
  RLNC are identically zero thanks to exact innovation checks).

Runs are repeated over Monte-Carlo seeds and averaged, mirroring the
paper's 25-run averages (scaled by profile).  Each (scheme, N, k)
point is one cell, a :class:`~repro.scenarios.spec.ScenarioSpec` named
``fig7:<scheme>:n<N>:k<k>``, whose repetitions are trials on the
:class:`~repro.scenarios.fleet.FleetRunner`, seeded from the cell name
by the fleet's seed tree; every driver takes ``n_workers``, which
changes no result.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.experiments.tracestats import rank_curve
from repro.gossip.simulator import Feedback
from repro.obs.spec import ObsSpec
from repro.obs.tracer import read_trace, trace_filename
from repro.scenarios.fleet import FleetRunner
from repro.scenarios.spec import ScenarioSpec
from repro.schemes import LTNC_AGGRESSIVENESS, get_scheme

__all__ = [
    "ConvergenceCurve",
    "run_convergence",
    "average_completion_time",
    "ltnc_overhead",
    "LTNC_AGGRESSIVENESS",
]


@dataclass
class ConvergenceCurve:
    """Averaged Fig. 7a series for one scheme."""

    scheme: str
    rounds: list[int] = field(default_factory=list)
    completed_fraction: list[float] = field(default_factory=list)
    runs: int = 0

    def time_to_fraction(self, fraction: float) -> int:
        """First round where at least *fraction* of nodes completed."""
        for round_index, value in zip(self.rounds, self.completed_fraction):
            if value >= fraction:
                return round_index
        return self.rounds[-1] if self.rounds else 0


def _cell(
    scheme: str,
    n_nodes: int,
    k: int,
    source_pushes: int,
    max_rounds: int,
    feedback: Feedback,
    node_kwargs: dict[str, object] | None,
) -> ScenarioSpec:
    """One Fig. 7 cell, named ``fig7:<scheme>:n<N>:k<k>``.

    Per-scheme experiment defaults (LTNC's 1 % aggressiveness, §IV-A)
    come from the scheme descriptor; explicit kwargs override them.
    """
    kwargs = dict(get_scheme(scheme).default_node_kwargs)
    if node_kwargs:
        kwargs.update(node_kwargs)
    return ScenarioSpec(
        name=f"fig7:{scheme}:n{n_nodes}:k{k}",
        scheme=scheme,
        n_nodes=n_nodes,
        k=k,
        feedback=Feedback(feedback).value,
        source_pushes=source_pushes,
        max_rounds=max_rounds,
        node_kwargs=kwargs,
    )


def run_convergence(
    scheme: str,
    n_nodes: int,
    k: int,
    monte_carlo: int = 3,
    seed: int = 0,
    source_pushes: int = 4,
    max_rounds: int = 200_000,
    feedback: Feedback = Feedback.BINARY,
    node_kwargs: dict[str, object] | None = None,
    n_workers: int = 1,
) -> ConvergenceCurve:
    """Fig. 7a: averaged completed-fraction series for one scheme.

    Each trial's per-round completed count comes from its trace.
    """
    spec = _cell(scheme, n_nodes, k, source_pushes, max_rounds, feedback, node_kwargs)
    with tempfile.TemporaryDirectory() as trace_dir:
        traced = spec.with_(obs=ObsSpec(trace_dir=trace_dir))
        aggregate = FleetRunner(n_workers=n_workers).run(traced, monte_carlo, seed)
        traces = [
            read_trace(pathlib.Path(trace_dir) / trace_filename(spec.name, t["seed"]))
            for t in aggregate.trials
        ]
    series = [
        [row["completed"] / n_nodes for row in rank_curve(trace)]
        for trace in traces
    ]
    horizon = max(len(s) for s in series)
    padded = np.ones((len(series), horizon))
    for row, s in enumerate(series):
        padded[row, : len(s)] = s
    curve = ConvergenceCurve(scheme, runs=monte_carlo)
    curve.rounds = list(range(horizon))
    curve.completed_fraction = padded.mean(axis=0).tolist()
    return curve


def average_completion_time(
    scheme: str,
    n_nodes: int,
    k: int,
    monte_carlo: int = 3,
    seed: int = 0,
    source_pushes: int = 4,
    max_rounds: int = 200_000,
    feedback: Feedback = Feedback.BINARY,
    node_kwargs: dict[str, object] | None = None,
    n_workers: int = 1,
) -> float:
    """Fig. 7b: mean completion round, averaged over Monte-Carlo runs."""
    spec = _cell(scheme, n_nodes, k, source_pushes, max_rounds, feedback, node_kwargs)
    aggregate = FleetRunner(n_workers=n_workers).run(spec, monte_carlo, seed)
    return aggregate.mean("average_completion_round")


def ltnc_overhead(
    n_nodes: int,
    k: int,
    monte_carlo: int = 3,
    seed: int = 0,
    source_pushes: int = 4,
    max_rounds: int = 200_000,
    feedback: Feedback = Feedback.BINARY,
    node_kwargs: dict[str, object] | None = None,
    n_workers: int = 1,
) -> float:
    """Fig. 7c: LTNC's mean communication overhead at code length k."""
    spec = _cell("ltnc", n_nodes, k, source_pushes, max_rounds, feedback, node_kwargs)
    aggregate = FleetRunner(n_workers=n_workers).run(spec, monte_carlo, seed)
    return aggregate.mean("overhead")
