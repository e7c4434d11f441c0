"""Streaming aggregation of Monte-Carlo trial results.

The :class:`~repro.scenarios.fleet.FleetRunner` produces one
:class:`~repro.gossip.metrics.DisseminationResult` per (scenario, seed)
trial and flattens it with :func:`trial_record`; this module folds the
records into a :class:`ScenarioAggregate` of per-metric mean / 95 %-CI
summaries plus the raw per-trial scalars, and renders aggregates side
by side as a comparison table (:func:`comparison_rows`).

Aggregates are *mergeable*: two aggregates of the same scenario (for
example from two machines each running half the seed grid) combine
into the aggregate of the union, with trials re-ordered by trial index
— so a sharded run serialises to byte-identical JSON as a serial one.
"""

from __future__ import annotations

import json
import math
import pathlib

from repro.errors import SimulationError
from repro.fileio import atomic_write_text
from repro.gossip.metrics import DisseminationResult
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ScenarioAggregate",
    "comparison_rows",
    "summary_stats",
    "trial_record",
]


def trial_record(
    trial_index: int, seed: int, result: DisseminationResult
) -> dict[str, object]:
    """One finished trial as the flat record aggregates and checkpoints store."""
    record: dict[str, object] = {"trial_index": trial_index, "seed": seed}
    record.update(result.key_metrics())
    return record


#: z-score of the two-sided 95 % confidence interval (normal approx.,
#: matching the paper's 25-repetition averages).
_Z95 = 1.96


def summary_stats(values: list[float]) -> dict[str, float | int | None]:
    """Mean / 95 %-CI half-width / min / max of a metric over trials.

    ``None`` entries (metric undefined for a trial, e.g. overhead when
    no node completed) are dropped; ``n`` reports how many survived.
    """
    clean = [float(v) for v in values if v is not None]
    n = len(clean)
    if n == 0:
        return {"n": 0, "mean": None, "ci95": None, "min": None, "max": None}
    mean = sum(clean) / n
    if n > 1:
        var = sum((v - mean) ** 2 for v in clean) / (n - 1)
        ci95 = _Z95 * math.sqrt(var / n)
    else:
        ci95 = 0.0
    return {
        "n": n,
        "mean": mean,
        "ci95": ci95,
        "min": min(clean),
        "max": max(clean),
    }


def comparison_rows(
    aggregates: dict[str, "ScenarioAggregate"],
    columns: tuple[tuple[str, str], ...],
) -> tuple[list[str], list[list[str]]]:
    """``(header, rows)`` of a sweep table, aggregates in run order.

    *columns* lists ``(metrics_summary key, short header)`` pairs; each
    cell renders ``mean±ci95``, or ``n/a`` where the metric does not
    apply (absent key, or ``None`` mean — e.g. cache columns for a
    single-content workload).
    """
    header = ["scenario"] + [short for _, short in columns]
    rows = []
    for name, aggregate in aggregates.items():
        summary = aggregate.metrics_summary()
        row = [name]
        for key, _ in columns:
            stats = summary.get(key)
            mean = stats["mean"] if stats else None
            row.append(
                "n/a" if mean is None else f"{mean:.2f}±{stats['ci95']:.2f}"
            )
        rows.append(row)
    return header, rows


class ScenarioAggregate:
    """Accumulates per-trial key metrics for one scenario."""

    def __init__(self, scenario: ScenarioSpec, master_seed: int) -> None:
        self.scenario = scenario
        self.master_seed = master_seed
        self.trials: list[dict[str, object]] = []

    # ------------------------------------------------------------------
    def add_record(self, record: dict[str, object]) -> None:
        """Fold one flattened trial record (:func:`trial_record`) in.

        Fresh trials and checkpoint replays take the same path:
        checkpointed shards store the exact per-trial records, so
        replaying them never re-runs the simulation.  The record needs
        at least ``trial_index`` and ``seed``; everything else is
        treated as a scalar metric.
        """
        if "trial_index" not in record or "seed" not in record:
            raise SimulationError(
                "trial record needs 'trial_index' and 'seed' keys, got "
                f"{sorted(record)}"
            )
        self.trials.append(dict(record))

    def merge(self, other: "ScenarioAggregate") -> None:
        """Fold *other* (same scenario, disjoint trials) into this one."""
        if other.scenario != self.scenario:
            raise SimulationError(
                "cannot merge aggregates of different scenarios: "
                f"{self.scenario.name!r} vs {other.scenario.name!r}"
            )
        if other.master_seed != self.master_seed:
            raise SimulationError(
                "cannot merge aggregates with different master seeds: "
                f"{self.master_seed} vs {other.master_seed}"
            )
        seen = {t["trial_index"] for t in self.trials}
        clash = seen & {t["trial_index"] for t in other.trials}
        if clash:
            raise SimulationError(
                f"duplicate trial indices in merge: {sorted(clash)}"
            )
        self.trials.extend(other.trials)
        self.trials.sort(key=lambda t: t["trial_index"])  # type: ignore[arg-type,return-value]

    # ------------------------------------------------------------------
    @property
    def n_trials(self) -> int:
        return len(self.trials)

    def metric_values(self, metric: str) -> list[float]:
        return [t.get(metric) for t in self.trials]  # type: ignore[misc]

    def mean(self, metric: str) -> float:
        """Mean of *metric* over every trial; raises naming the scenario
        if a trial left it undefined (``None``: nothing completed)."""
        stats = summary_stats(self.metric_values(metric))
        if stats["n"] != self.n_trials:
            raise SimulationError(
                f"scenario {self.scenario.name!r}: {metric} is undefined "
                f"in {self.n_trials - stats['n']} of {self.n_trials} trials"
            )
        return stats["mean"]  # type: ignore[return-value]

    def metrics_summary(self) -> dict[str, dict[str, float | int | None]]:
        """Mean/CI/min/max for every scalar metric, over all trials.

        The metric list is the **union** of keys across all trials, not
        trial 0's keys: after :meth:`merge` re-sorts heterogeneous
        shards (e.g. per-content ``content:<name>:*`` keys present only
        in some trials), a metric absent from trial 0 must still be
        summarised.  Keys come out in first-seen order over the
        index-sorted trials, so the summary is deterministic regardless
        of merge order.
        """
        if not self.trials:
            return {}
        metrics: list[str] = []
        seen = {"trial_index", "seed"}
        for trial in sorted(
            self.trials, key=lambda t: t["trial_index"]  # type: ignore[arg-type,return-value]
        ):
            for key in trial:
                if key not in seen:
                    seen.add(key)
                    metrics.append(key)
        return {m: summary_stats(self.metric_values(m)) for m in metrics}

    def to_dict(self) -> dict[str, object]:
        """Deterministic JSON-able dump (no timestamps, no host info)."""
        return {
            "scenario": self.scenario.to_dict(),
            "master_seed": self.master_seed,
            "n_trials": self.n_trials,
            "trials": sorted(
                self.trials, key=lambda t: t["trial_index"]  # type: ignore[arg-type,return-value]
            ),
            "metrics": self.metrics_summary(),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    def write_json(self, path: str | pathlib.Path) -> pathlib.Path:
        """Persist the aggregate under e.g. ``benchmarks/out/``.

        Writes atomically: a crash mid-write leaves either the old file
        or the new one, never a truncated hybrid a resume would trust.
        """
        return atomic_write_text(path, self.to_json() + "\n")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ScenarioAggregate({self.scenario.name!r}, "
            f"trials={self.n_trials})"
        )
