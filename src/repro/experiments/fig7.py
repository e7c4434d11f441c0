"""Figure 7 harness — dissemination performance (§IV-B).

Three panels over the epidemic simulator:

* **7a convergence** — proportion of nodes having decoded everything,
  as a function of time, for WC / LTNC / RLNC at a fixed code length;
* **7b completion time** — average time to complete versus the code
  length k, for the three schemes;
* **7c overhead** — LTNC's communication overhead versus k (WC and
  RLNC are identically zero thanks to exact innovation checks).

Runs are repeated over Monte-Carlo seeds and averaged, mirroring the
paper's 25-run averages (scaled by profile).  The Monte-Carlo loop is
embarrassingly parallel: every driver takes ``n_workers`` and fans the
repetitions out via :func:`repro.scenarios.runner.parallel_map`, with
per-run seeding unchanged, so ``n_workers=1`` reproduces the historic
serial numbers bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gossip.metrics import DisseminationResult
from repro.gossip.simulator import EpidemicSimulator, Feedback
from repro.rng import derive
from repro.scenarios.runner import parallel_map
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


def _run_once(
    scheme: str,
    n_nodes: int,
    k: int,
    seed: int,
    source_pushes: int,
    max_rounds: int,
    feedback: Feedback,
    node_kwargs: dict[str, object] | None = None,
) -> DisseminationResult:
    # Per-scheme experiment defaults (LTNC's 1 % aggressiveness, §IV-A)
    # come from the scheme descriptor; explicit kwargs override them.
    kwargs = dict(get_scheme(scheme).default_node_kwargs)
    if node_kwargs:
        kwargs.update(node_kwargs)
    sim = EpidemicSimulator(
        scheme,
        n_nodes,
        k,
        feedback=feedback,
        source_pushes=source_pushes,
        max_rounds=max_rounds,
        seed=derive(seed, scheme, n_nodes, k),
        node_kwargs=kwargs,
    )
    return sim.run()


def _run_once_args(args: tuple) -> DisseminationResult:
    """Tuple-splat shim so worker processes can pickle the call."""
    return _run_once(*args)


def _monte_carlo(
    scheme: str,
    n_nodes: int,
    k: int,
    monte_carlo: int,
    seed: int,
    source_pushes: int,
    max_rounds: int,
    feedback: Feedback,
    node_kwargs: dict[str, object] | None,
    n_workers: int,
) -> list[DisseminationResult]:
    """All Monte-Carlo repetitions, serially or across processes."""
    grid = [
        (scheme, n_nodes, k, seed + run, source_pushes, max_rounds, feedback, node_kwargs)
        for run in range(monte_carlo)
    ]
    return parallel_map(_run_once_args, grid, n_workers)


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
    """Fig. 7a: averaged completed-fraction series for one scheme."""
    results = _monte_carlo(
        scheme,
        n_nodes,
        k,
        monte_carlo,
        seed,
        source_pushes,
        max_rounds,
        feedback,
        node_kwargs,
        n_workers,
    )
    series: list[list[float]] = [r.series_completed for r in results]
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
    results = _monte_carlo(
        scheme,
        n_nodes,
        k,
        monte_carlo,
        seed,
        source_pushes,
        max_rounds,
        feedback,
        node_kwargs,
        n_workers,
    )
    return float(np.mean([r.average_completion_round() for r in results]))


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
    results = _monte_carlo(
        "ltnc",
        n_nodes,
        k,
        monte_carlo,
        seed,
        source_pushes,
        max_rounds,
        feedback,
        node_kwargs,
        n_workers,
    )
    return float(np.mean([r.overhead() for r in results]))
