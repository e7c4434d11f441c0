"""The trial cell, its seed and the worker-process map under every sweep.

The paper averages 25 repetitions of an N = 1,000-node simulation —
embarrassingly parallel work.  This module holds the pieces the
:class:`~repro.scenarios.fleet.FleetRunner` fans out across worker
processes with :mod:`concurrent.futures`: the :class:`TrialSpec` cell,
the worker functions :func:`run_trial` / :func:`run_trial_telemetry`,
and the order-preserving :func:`parallel_map`.  Together they keep
three guarantees:

* **bit-reproducibility** — every trial's seed is an integer derived
  from the master seed and the (scenario name, trial index) path via
  :func:`repro.rng.derive_seed`, so any single trial can be re-run
  standalone (``spec.run(seed)``) with identical results;
* **worker-count invariance** — results are folded into the
  :class:`~repro.scenarios.aggregate.ScenarioAggregate` in trial
  order regardless of completion order, so ``n_workers=1`` and
  ``n_workers=8`` serialise to byte-identical JSON;
* **picklability** — workers receive only (spec dict, seed) payloads;
  simulators are built inside the worker, never shipped.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from repro.errors import SimulationError
from repro.gossip.metrics import DisseminationResult
from repro.obs.metrics import MetricsCollector
from repro.rng import derive_seed
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "TrialSpec",
    "default_chunksize",
    "merge_trial_snapshots",
    "parallel_map",
    "run_trial",
    "run_trial_telemetry",
    "trial_seed",
]

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Chunked dispatch targets this many chunks per worker, so the pool
#: load-balances (stragglers don't serialise the tail) without paying
#: one IPC round-trip per trial.
_CHUNKS_PER_WORKER = 4
#: Ceiling on the chunk size: past this, a lost worker re-runs too much
#: work and progress reporting gets too coarse.
_MAX_CHUNKSIZE = 32


def default_chunksize(n_items: int, n_workers: int) -> int:
    """Size-aware dispatch chunking for :func:`parallel_map`.

    Aims for :data:`_CHUNKS_PER_WORKER` chunks per worker (clamped to
    [1, :data:`_MAX_CHUNKSIZE`]): big grids amortise the pickle/IPC
    round-trip that ``chunksize=1`` paid per trial, small grids still
    spread across every worker.
    """
    if n_items <= 0 or n_workers <= 0:
        return 1
    chunk = -(-n_items // (n_workers * _CHUNKS_PER_WORKER))  # ceil div
    return max(1, min(chunk, _MAX_CHUNKSIZE))


@dataclass(frozen=True)
class TrialSpec:
    """One executable cell of a scenario × seed grid."""

    scenario: ScenarioSpec
    trial_index: int
    seed: int


def trial_seed(master_seed: int, scenario_name: str, trial_index: int) -> int:
    """The integer seed of one trial in the grid's seed tree."""
    return derive_seed(master_seed, "scenario", scenario_name, trial_index)


def run_trial(trial: TrialSpec) -> DisseminationResult:
    """Execute one trial (this is the function worker processes run)."""
    return trial.scenario.run(trial.seed)


def run_trial_telemetry(trial: TrialSpec):
    """Execute one trial and return ``(result, telemetry snapshot)``.

    The telemetry-collecting twin of :func:`run_trial`: the worker
    builds a fresh :class:`~repro.obs.metrics.MetricsCollector`, the
    simulator records into it after the run, and the snapshot rides
    back to the parent in-band (plain dicts pickle like the result
    does).  Collection never draws rng or charges OpCounters, so the
    *result* half is bit-identical to what :func:`run_trial` returns.
    """
    collector = MetricsCollector()
    result = trial.scenario.build(trial.seed, metrics=collector).run()
    return result, collector.snapshot()


def merge_trial_snapshots(
    snapshots: Sequence[dict[str, object]],
) -> dict[str, object]:
    """Fold per-trial snapshots (in trial order) into one section.

    Returns the ``n_trials``-annotated section shape the telemetry
    artifacts carry per scenario.
    """
    merged = MetricsCollector()
    for snapshot in snapshots:
        merged.merge_snapshot(snapshot)
    return {"n_trials": len(snapshots), **merged.snapshot()}


def parallel_map(
    fn: Callable[[_T], _R],
    items: Sequence[_T],
    n_workers: int = 1,
) -> list[_R]:
    """Order-preserving map, serially or over worker processes.

    *fn* must be a module-level (picklable) callable when
    ``n_workers > 1``.  Results come back in submission order, so the
    caller's aggregation is invariant to the worker count (and to the
    chunk size, :func:`default_chunksize`, which only batches dispatch).

    A ``KeyboardInterrupt`` (Ctrl-C on a long sweep) cancels every
    pending future and shuts the pool down instead of leaving orphaned
    workers grinding through the rest of the grid; the interrupt is
    then re-raised so the caller (e.g. the fleet runner) can surface
    its checkpoint state.
    """
    if n_workers < 1:
        raise SimulationError(f"n_workers must be >= 1, got {n_workers}")
    if n_workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    workers = min(n_workers, len(items))
    chunksize = default_chunksize(len(items), workers)
    with ProcessPoolExecutor(max_workers=workers) as executor:
        try:
            return list(executor.map(fn, items, chunksize=chunksize))
        except KeyboardInterrupt:
            # Drop everything not yet dispatched; the context manager's
            # final shutdown(wait=True) then only joins in-flight work.
            executor.shutdown(wait=False, cancel_futures=True)
            raise
