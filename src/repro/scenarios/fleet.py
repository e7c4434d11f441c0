"""Sharded trial fleet: partition, dispatch, checkpoint, resume.

The paper's headline numbers are 25-repetition averages of N = 1,000
node simulations; reproducing them (and the 1000-trial sweeps the
related LT-code systems run) needs sweeps that survive interruption.
This module is the one runner of scenario × seed grids:

* :func:`plan_shards` partitions a scenario × seed grid into
  contiguous, balanced shards (the unit of checkpointing);
* :class:`FleetRunner` runs each shard on the worker pool with chunked
  dispatch (:func:`~repro.scenarios.runner.parallel_map`), streams the
  per-trial records into mergeable
  :class:`~repro.scenarios.aggregate.ScenarioAggregate` objects, and —
  given a checkpoint directory — persists every finished shard
  atomically so an interrupted sweep resumes from the last finished
  shard;
* :class:`CheckpointStore` owns the on-disk format (one JSON file per
  shard, fingerprinted against the exact grid that produced it, never
  trusted when stale, corrupt or truncated).

Contracts, pinned by ``tests/test_fleet.py`` against the plain-loop
oracle in ``tests/oracles.py``: the aggregated JSON is byte-identical
across worker counts, shard counts, and interrupt/resume cycles — a
resumed sweep serialises exactly like an uninterrupted one, because
checkpoints store the exact per-trial records (plain JSON scalars,
which round-trip losslessly) rather than re-running anything.

Checkpoint file format (``shard-<scenario>-<index>.json``)::

    {
      "format": "ltnc-fleet-checkpoint",
      "version": 2,
      "fingerprint": "<sha256 of the canonical grid description>",
      "scenario": {<ScenarioSpec.to_dict()>},
      "master_seed": 7,
      "shard_index": 0,
      "n_shards": 4,
      "trial_indices": [0, 1, 2],
      "trials": [{"trial_index": 0, "seed": ..., <key metrics>}, ...],
      "telemetry": {"n_trials": 3, "counters": {...}, ...}
    }

``telemetry`` is present only when the shard ran with telemetry
collection on: the shard's merged in-worker telemetry section, the
unit the fleet-wide ``telemetry.json`` is merged from.

The fingerprint covers the scenario specs (order-insensitive), trial
count, master seed and shard count, so a checkpoint is only ever
replayed into the identical grid it was cut from; anything else is
recomputed, with a warning naming the file and the reason.
"""

from __future__ import annotations

import hashlib
import json
import logging
import pathlib
import re
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import SimulationError
from repro.fileio import atomic_write_text
from repro.obs.metrics import MetricsCollector
from repro.obs.progress import (
    FleetProgress,
    ProgressTracker,
    write_progress,
)
from repro.obs.telemetry import section_errors, write_telemetry
from repro.scenarios.aggregate import ScenarioAggregate, trial_record
from repro.scenarios.runner import (
    TrialSpec,
    merge_trial_snapshots,
    parallel_map,
    run_trial,
    run_trial_telemetry,
    trial_seed,
)
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "CHECKPOINT_FORMAT",
    "CHECKPOINT_VERSION",
    "CheckpointStore",
    "FleetRunner",
    "FleetStop",
    "ShardSpec",
    "WorkerLost",
    "grid_fingerprint",
    "plan_shards",
    "validate_checkpoint",
]

CHECKPOINT_FORMAT = "ltnc-fleet-checkpoint"
CHECKPOINT_VERSION = 2

logger = logging.getLogger(__name__)


class FleetStop(Exception):
    """Raised when a fleet run stops early (``stop_after_shards``).

    Completed shards are already checkpointed; the exception carries
    how far the sweep got so CLIs can tell the user what to resume.
    """

    def __init__(self, completed_shards: int, total_shards: int) -> None:
        self.completed_shards = completed_shards
        self.total_shards = total_shards
        super().__init__(
            f"stopped after {completed_shards}/{total_shards} shards"
        )


class WorkerLost(Exception):
    """Raised when a worker process dies mid-shard (killed, crashed).

    The pool cannot finish the shard, so the sweep stops there; the
    message names the shard.  Shards finished before it are already
    checkpointed (given a checkpoint directory), and a resume
    recomputes only what is missing.
    """


@dataclass(frozen=True)
class ShardSpec:
    """One checkpointable slice of a scenario × seed grid."""

    scenario: ScenarioSpec
    shard_index: int
    n_shards: int
    trial_indices: tuple[int, ...]
    master_seed: int

    def trials(self) -> list[TrialSpec]:
        """The executable trials of this shard (seed-tree derived)."""
        return [
            TrialSpec(
                self.scenario,
                i,
                trial_seed(self.master_seed, self.scenario.name, i),
            )
            for i in self.trial_indices
        ]


def plan_shards(
    scenarios: Sequence[ScenarioSpec],
    n_trials: int,
    master_seed: int,
    n_shards: int,
) -> list[ShardSpec]:
    """Partition the grid into balanced, contiguous per-scenario shards.

    Every scenario's ``range(n_trials)`` splits into
    ``min(n_shards, n_trials)`` chunks whose sizes differ by at most
    one; the plan is a pure function of its arguments, so two runs (or
    an interrupted run and its resume) agree on shard boundaries.
    """
    if n_trials < 1:
        raise SimulationError(f"n_trials must be >= 1, got {n_trials}")
    if n_shards < 1:
        raise SimulationError(f"n_shards must be >= 1, got {n_shards}")
    names = [s.name for s in scenarios]
    if len(set(names)) != len(names):
        raise SimulationError(f"duplicate scenario names in grid: {names}")
    shards: list[ShardSpec] = []
    for scenario in scenarios:
        m = min(n_shards, n_trials)
        for j in range(m):
            lo = j * n_trials // m
            hi = (j + 1) * n_trials // m
            shards.append(
                ShardSpec(
                    scenario=scenario,
                    shard_index=j,
                    n_shards=n_shards,
                    trial_indices=tuple(range(lo, hi)),
                    master_seed=master_seed,
                )
            )
    return shards


def grid_fingerprint(
    scenarios: Sequence[ScenarioSpec],
    n_trials: int,
    master_seed: int,
    n_shards: int,
) -> str:
    """SHA-256 of the canonical grid description.

    Scenario dicts are keyed by name (order-insensitive: reordering
    ``--scenario all`` between runs must not orphan checkpoints), and
    the shard count is included so checkpoints cut on one shard plan
    are never spliced into another.
    """
    canonical = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "scenarios": {s.name: s.to_dict() for s in scenarios},
        "n_trials": n_trials,
        "master_seed": master_seed,
        "n_shards": n_shards,
    }
    blob = json.dumps(canonical, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _slug(name: str) -> str:
    """Filesystem-safe scenario label for checkpoint filenames."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name) or "scenario"


def _is_metric(value: object) -> bool:
    """A trial metric is a JSON number or null (``bool`` is neither)."""
    return value is None or (
        isinstance(value, (int, float)) and not isinstance(value, bool)
    )


def _checkpoint_errors(payload: dict[str, object]) -> list[str]:
    """Every schema violation of one checkpoint payload object."""
    errors: list[str] = []
    if payload.get("format") != CHECKPOINT_FORMAT:
        errors.append(
            f"format {payload.get('format')!r} != {CHECKPOINT_FORMAT!r}"
        )
    if payload.get("version") != CHECKPOINT_VERSION:
        errors.append(
            f"version {payload.get('version')!r} != {CHECKPOINT_VERSION}"
        )
    if not isinstance(payload.get("fingerprint"), str):
        errors.append("fingerprint is not a string")
    if not isinstance(payload.get("scenario"), dict):
        errors.append("scenario is not an object")
    for key in ("shard_index", "n_shards"):
        value = payload.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{key} is not a non-negative int")
    indices = payload.get("trial_indices")
    if not isinstance(indices, list) or not all(
        isinstance(i, int) and not isinstance(i, bool) for i in indices
    ):
        errors.append("trial_indices is not a list of ints")
    trials = payload.get("trials")
    if not isinstance(trials, list) or not all(
        isinstance(t, dict) for t in trials
    ):
        errors.append("trials is not a list of objects")
    elif not all(_is_metric(v) for t in trials for v in t.values()):
        errors.append("a trial value is not a number or null")
    if "telemetry" in payload:
        errors.extend(section_errors(payload["telemetry"], "telemetry"))
    return errors


def validate_checkpoint(
    payload: object, source: str = "checkpoint"
) -> dict[str, object]:
    """Check one shard-checkpoint payload's shape; return it on success.

    Raises ``ValueError`` listing every violation, prefixed with
    *source* — the same shape as the trace/telemetry validators, and
    the callable the :mod:`repro.analysis.schemas` registry pairs with
    the ``ltnc-fleet-checkpoint`` writer.  This is the *schema* check
    only; :meth:`CheckpointStore.load` additionally ties a checkpoint
    to the live plan (fingerprint, shard identity, trial seeds), which
    no standalone validator can do.
    """
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: checkpoint payload is not a JSON object")
    errors = _checkpoint_errors(payload)
    if errors:
        raise ValueError(f"{source}: invalid checkpoint: " + "; ".join(errors))
    return payload


class CheckpointStore:
    """One JSON file per finished shard, written atomically.

    ``load`` is paranoid by design: a checkpoint is replayed only when
    its format, version, fingerprint, shard identity, trial records and
    telemetry section all match the live plan — a truncated,
    hand-edited or stale file means the shard is recomputed.
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.directory = pathlib.Path(directory)

    def path_for(self, shard: ShardSpec) -> pathlib.Path:
        return (
            self.directory
            / f"shard-{_slug(shard.scenario.name)}-{shard.shard_index:04d}.json"
        )

    def save(
        self,
        shard: ShardSpec,
        fingerprint: str,
        records: list[dict[str, object]],
        telemetry: dict[str, object] | None = None,
    ) -> pathlib.Path:
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "scenario": shard.scenario.to_dict(),
            "master_seed": shard.master_seed,
            "shard_index": shard.shard_index,
            "n_shards": shard.n_shards,
            "trial_indices": list(shard.trial_indices),
            "trials": records,
        }
        if telemetry is not None:
            payload["telemetry"] = telemetry
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        return atomic_write_text(self.path_for(shard), text)

    def load(
        self, shard: ShardSpec, fingerprint: str
    ) -> tuple[list[dict[str, object]], dict[str, object] | None] | None:
        """``(trial records, telemetry section)``, or ``None`` if not reusable.

        The section is ``None`` when the shard ran without telemetry.
        A missing file is the normal first-run case and stays silent;
        every other reason to recompute — corrupt JSON, a format or
        version from another fleet generation, a fingerprint cut from a
        different grid, mismatched shard identity, trial records whose
        indices, seeds or metric values do not fit the plan, or a
        malformed telemetry section — is logged as a warning naming the
        file, so a resumed fleet never *silently* throws checkpointed
        work away.
        """
        path = self.path_for(shard)
        try:
            payload = json.loads(path.read_text())
        except FileNotFoundError:
            return None
        except OSError as exc:
            logger.warning("checkpoint %s: unreadable (%s); recomputing", path, exc)
            return None
        except json.JSONDecodeError as exc:
            logger.warning(
                "checkpoint %s: corrupt JSON (%s); recomputing", path, exc
            )
            return None
        if not isinstance(payload, dict):
            logger.warning(
                "checkpoint %s: corrupt JSON (not an object); recomputing",
                path,
            )
            return None
        if (
            payload.get("format") != CHECKPOINT_FORMAT
            or payload.get("version") != CHECKPOINT_VERSION
        ):
            logger.warning(
                "checkpoint %s: format/version mismatch "
                "(got %r v%r, want %r v%r); recomputing",
                path,
                payload.get("format"),
                payload.get("version"),
                CHECKPOINT_FORMAT,
                CHECKPOINT_VERSION,
            )
            return None
        if payload.get("fingerprint") != fingerprint:
            logger.warning(
                "checkpoint %s: grid fingerprint mismatch (cut from a "
                "different scenario/seed/shard grid); recomputing",
                path,
            )
            return None
        if (
            payload.get("shard_index") != shard.shard_index
            or payload.get("master_seed") != shard.master_seed
            or payload.get("trial_indices") != list(shard.trial_indices)
        ):
            logger.warning(
                "checkpoint %s: shard identity mismatch; recomputing", path
            )
            return None
        errors = _checkpoint_errors(payload)
        if errors:
            logger.warning(
                "checkpoint %s: malformed trial records or telemetry "
                "(%s); recomputing",
                path,
                "; ".join(errors),
            )
            return None
        trials = payload["trials"]
        planned = [(t.trial_index, t.seed) for t in shard.trials()]
        if [(t.get("trial_index"), t.get("seed")) for t in trials] != planned:
            logger.warning(
                "checkpoint %s: trial indices or seeds do not match the "
                "plan; recomputing",
                path,
            )
            return None
        telemetry = payload.get("telemetry")
        if telemetry is not None and telemetry["n_trials"] != len(trials):
            logger.warning(
                "checkpoint %s: telemetry section covers %d trials, the "
                "shard %d; recomputing",
                path,
                telemetry["n_trials"],
                len(trials),
            )
            return None
        return trials, telemetry

    def sweep_stale_tmp(self) -> int:
        """Best-effort unlink of stray atomic-write temp files.

        An interrupted process can die between ``mkstemp`` and its
        ``finally`` cleanup; the next fleet run over the same directory
        sweeps those orphans.  Returns the number removed.
        """
        removed = 0
        for tmp in self.directory.glob(".*.tmp"):
            try:
                tmp.unlink()
                removed += 1
            except OSError:
                continue
        return removed


class FleetRunner:
    """Runs a scenario × seed grid shard by shard over worker processes.

    Shards run sequentially; within a shard, trials fan out over the
    worker pool with chunked dispatch.  With ``checkpoint_dir`` set,
    every finished shard is persisted atomically; with ``resume=True``
    matching checkpoints are replayed instead of recomputed.  The
    aggregated JSON is byte-identical to a serial in-process loop over
    the trials for any ``(n_workers, n_shards)`` and any
    interrupt/resume history.

    ``n_shards=None`` picks one shard per scenario without
    checkpointing or progress (one pool dispatch per scenario) and
    ``min(n_trials, max(4, n_workers))`` with either, so shards are
    coarse enough to keep the pool busy but fine enough that an
    interrupt loses little work.

    ``stop_after_shards`` is a deterministic interruption hook (used by
    the CI resume smoke): after *executing* that many shards (replayed
    checkpoints don't count), the runner checkpoints what it has and
    raises :class:`FleetStop`.

    ``progress`` is an optional callback receiving one
    :class:`~repro.obs.progress.FleetProgress` heartbeat per finished
    shard (replayed ones included); with a checkpoint directory set the
    latest heartbeat is additionally written atomically to
    ``progress.json`` next to the shard files, so remote dispatch can
    poll the fleet without attaching to its stdout.  Progress never
    feeds back into scheduling or seeding — results are byte-identical
    with and without it.

    ``telemetry_dir`` switches workers to the telemetry-collecting
    trial function: per-trial metric snapshots are merged per shard,
    stored in the shard's checkpoint (its ``telemetry`` section) when
    checkpointing, and — once the whole grid finished — merged shard by
    shard into an atomic fleet-wide ``telemetry.json`` in that
    directory.  A resumed shard replays its saved section; a checkpoint
    without one is recomputed whole (with a warning), so the merged
    telemetry (like the aggregates) is byte-identical across worker
    counts, shard counts and interrupt/resume cycles.  The merged
    sections stay readable on :attr:`last_telemetry` after a completed
    run.
    """

    def __init__(
        self,
        n_workers: int = 1,
        n_shards: int | None = None,
        checkpoint_dir: str | pathlib.Path | None = None,
        resume: bool = False,
        stop_after_shards: int | None = None,
        progress=None,
        telemetry_dir: str | pathlib.Path | None = None,
    ) -> None:
        if n_workers < 1:
            raise SimulationError(f"n_workers must be >= 1, got {n_workers}")
        if n_shards is not None and n_shards < 1:
            raise SimulationError(f"n_shards must be >= 1, got {n_shards}")
        if stop_after_shards is not None and stop_after_shards < 1:
            raise SimulationError(
                f"stop_after_shards must be >= 1, got {stop_after_shards}"
            )
        if resume and checkpoint_dir is None:
            raise SimulationError("resume=True requires a checkpoint_dir")
        self.n_workers = n_workers
        self.n_shards = n_shards
        self.store = (
            CheckpointStore(checkpoint_dir)
            if checkpoint_dir is not None
            else None
        )
        self.resume = resume
        self.stop_after_shards = stop_after_shards
        self.progress = progress
        self.telemetry_dir = (
            pathlib.Path(telemetry_dir) if telemetry_dir is not None else None
        )
        #: Scenario name -> merged telemetry section, from the last
        #: *completed* run (``None`` after an interrupted one).
        self.last_telemetry: dict[str, dict[str, object]] | None = None

    # ------------------------------------------------------------------
    def _resolve_shards(self, n_trials: int) -> int:
        if self.n_shards is not None:
            return self.n_shards
        if self.store is None and self.progress is None:
            return 1
        # Checkpointing or progress reporting both want shards coarse
        # enough to keep the pool busy, fine enough to surface signal.
        return min(n_trials, max(4, self.n_workers))

    def run(
        self, scenario: ScenarioSpec, n_trials: int, master_seed: int = 0
    ) -> ScenarioAggregate:
        """Run one scenario's trial grid through the fleet."""
        return self.run_grid([scenario], n_trials, master_seed)[scenario.name]

    def run_grid(
        self,
        scenarios: Iterable[ScenarioSpec],
        n_trials: int,
        master_seed: int = 0,
    ) -> dict[str, ScenarioAggregate]:
        """Run a whole scenario catalogue; one aggregate per scenario."""
        scenario_list = list(scenarios)
        n_shards = self._resolve_shards(n_trials)
        shards = plan_shards(scenario_list, n_trials, master_seed, n_shards)
        fingerprint = grid_fingerprint(
            scenario_list, n_trials, master_seed, n_shards
        )
        aggregates = {
            s.name: ScenarioAggregate(s, master_seed) for s in scenario_list
        }
        if self.store is not None:
            self.store.sweep_stale_tmp()
        tracker = ProgressTracker(
            shards_total=len(shards),
            trials_total=sum(len(s.trial_indices) for s in shards),
        )
        self.last_telemetry = None
        collect = self.telemetry_dir is not None
        telemetry = {s.name: MetricsCollector() for s in scenario_list}
        telemetry_trials = {s.name: 0 for s in scenario_list}
        executed = 0
        for position, shard in enumerate(shards):
            started = time.monotonic()
            loaded = self._replay(shard, fingerprint, collect)
            replayed = loaded is not None
            if loaded is None:
                try:
                    loaded = self._execute_shard(shard, fingerprint, collect)
                except BrokenProcessPool as exc:
                    raise WorkerLost(
                        f"lost a worker in shard {shard.shard_index} of "
                        f"{shard.scenario.name!r} after {position}/"
                        f"{len(shards)} shards"
                    ) from exc
                executed += 1
            records, section = loaded
            name = shard.scenario.name
            for record in records:
                aggregates[name].add_record(record)
            if collect:
                telemetry[name].merge_snapshot(section)
                telemetry_trials[name] += section["n_trials"]
            self._heartbeat(
                tracker.shard_finished(
                    name,
                    shard.shard_index,
                    len(shard.trial_indices),
                    time.monotonic() - started,
                    replayed=replayed,
                )
            )
            if (
                self.stop_after_shards is not None
                and executed >= self.stop_after_shards
                and position + 1 < len(shards)
            ):
                raise FleetStop(position + 1, len(shards))
        if collect:
            self.last_telemetry = {
                name: {"n_trials": telemetry_trials[name], **collector.snapshot()}
                for name, collector in telemetry.items()
            }
            write_telemetry(
                self.telemetry_dir / "telemetry.json", self.last_telemetry
            )
        return aggregates

    def _replay(self, shard: ShardSpec, fingerprint: str, collect: bool):
        """The shard's checkpointed ``(records, section)``, if reusable.

        A telemetry run replays a checkpoint only together with its
        telemetry section; one without is recomputed whole, so the
        merged telemetry stays resume-invariant.
        """
        if self.store is None or not self.resume:
            return None
        loaded = self.store.load(shard, fingerprint)
        if loaded is not None and collect and loaded[1] is None:
            logger.warning(
                "checkpoint %s: no telemetry section for a telemetry "
                "run; recomputing",
                self.store.path_for(shard),
            )
            return None
        return loaded

    def _heartbeat(self, beat: FleetProgress) -> None:
        """Fan one progress snapshot out to the callback and the disk."""
        if self.progress is not None:
            self.progress(beat)
        if self.store is not None:
            write_progress(self.store.directory / "progress.json", beat)

    def _execute_shard(
        self, shard: ShardSpec, fingerprint: str, collect: bool
    ) -> tuple[list[dict[str, object]], dict[str, object] | None]:
        """Run one shard on the pool; checkpoint before returning.

        Returns ``(trial records, telemetry section)``; the section is
        ``None`` when telemetry collection is off.
        """
        trials = shard.trials()
        section: dict[str, object] | None = None
        if collect:
            pairs = parallel_map(run_trial_telemetry, trials, self.n_workers)
            results = [result for result, _ in pairs]
            section = merge_trial_snapshots([snap for _, snap in pairs])
        else:
            results = parallel_map(run_trial, trials, self.n_workers)
        records = [
            trial_record(trial.trial_index, trial.seed, result)
            for trial, result in zip(trials, results)
        ]
        if self.store is not None:
            self.store.save(shard, fingerprint, records, section)
        return records, section
