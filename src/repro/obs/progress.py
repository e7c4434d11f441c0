"""Live fleet progress: per-shard heartbeats → callback + progress.json.

The trial fleet already checkpoints per shard; this module turns those
completions into a progress signal a human (``--progress`` on the CLIs)
or a remote dispatcher (polling the atomic ``progress.json`` written
next to the checkpoints) can watch.  :class:`ProgressTracker` folds each
finished shard into a :class:`FleetProgress` snapshot with an
exponential-moving-average trials/sec and an ETA; replayed
(checkpoint-restored) shards update the done counts but never the rate,
so a resume does not report fantasy throughput.

Everything here is observability-only: progress never feeds back into
shard scheduling, seeding, or aggregation, so enabling it cannot change
results (``tests/test_obs_invariance.py`` pins the fleet output
byte-identical with and without it).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import time
from typing import Callable

from repro.fileio import atomic_write_text

__all__ = [
    "PROGRESS_FORMAT",
    "PROGRESS_VERSION",
    "FleetProgress",
    "ProgressTracker",
    "render_progress",
    "validate_progress",
    "write_progress",
]

PROGRESS_FORMAT = "ltnc-fleet-progress"
PROGRESS_VERSION = 1

#: Signature of a fleet progress callback.
ProgressCallback = Callable[["FleetProgress"], None]

#: Smoothing factor of the trials/sec EMA: each freshly run shard moves
#: the estimate halfway towards its own rate.
EMA_ALPHA = 0.5


@dataclasses.dataclass(frozen=True)
class FleetProgress:
    """One heartbeat: fleet state after a shard finished."""

    scenario: str  # scenario whose shard just finished
    shard_index: int  # its index within that scenario's shards
    shards_done: int  # completed shards across the whole grid
    shards_total: int
    trials_done: int  # trials covered by completed shards
    trials_total: int
    replayed: bool  # this shard came from a checkpoint, not a run
    trials_per_sec: float | None  # EMA over freshly-run shards
    eta_seconds: float | None  # remaining trials / EMA

    def to_dict(self) -> dict[str, object]:
        return {
            "format": PROGRESS_FORMAT,
            "version": PROGRESS_VERSION,
            "scenario": self.scenario,
            "shard_index": self.shard_index,
            "shards_done": self.shards_done,
            "shards_total": self.shards_total,
            "trials_done": self.trials_done,
            "trials_total": self.trials_total,
            "replayed": self.replayed,
            "trials_per_sec": self.trials_per_sec,
            "eta_seconds": self.eta_seconds,
        }


class ProgressTracker:
    """Folds shard completions into :class:`FleetProgress` heartbeats.

    Parameters
    ----------
    shards_total, trials_total:
        Grid-wide totals, known up front from the resolved shard plan.
    """

    def __init__(self, shards_total: int, trials_total: int) -> None:
        self.shards_total = shards_total
        self.trials_total = trials_total
        self.shards_done = 0
        self.trials_done = 0
        self._rate: float | None = None

    def shard_finished(
        self,
        scenario: str,
        shard_index: int,
        n_trials: int,
        seconds: float,
        replayed: bool = False,
    ) -> FleetProgress:
        """Record one finished shard and return the updated snapshot.

        *seconds* is the shard's wall time on the monotonic clock;
        ignored for replayed shards, whose near-instant checkpoint loads
        would otherwise swamp the EMA with absurd rates.
        """
        self.shards_done += 1
        self.trials_done += n_trials
        if not replayed and seconds > 0.0 and n_trials > 0:
            rate = n_trials / seconds
            if self._rate is None:
                self._rate = rate
            else:
                self._rate += EMA_ALPHA * (rate - self._rate)
        remaining = max(0, self.trials_total - self.trials_done)
        eta = remaining / self._rate if self._rate else None
        return FleetProgress(
            scenario=scenario,
            shard_index=shard_index,
            shards_done=self.shards_done,
            shards_total=self.shards_total,
            trials_done=self.trials_done,
            trials_total=self.trials_total,
            replayed=replayed,
            trials_per_sec=round(self._rate, 3) if self._rate else None,
            eta_seconds=round(eta, 1) if eta is not None else None,
        )


def render_progress(progress: FleetProgress) -> str:
    """One console line per heartbeat, e.g.

    ``[shard 3/8] baseline · 12/32 trials · 4.1 trials/s · ETA 5s``

    Degrades gracefully on degenerate snapshots: an unknown or zero
    shard total renders as ``?``, and while the rate EMA has no sample
    yet (every shard so far replayed from checkpoints, say) the line
    reads ``ETA ?`` rather than omitting the field — a watcher tailing
    the output keeps a stable column either way.
    """
    shards_total: object = progress.shards_total if progress.shards_total else "?"
    parts = [
        f"[shard {progress.shards_done}/{shards_total}]",
        progress.scenario,
        f"{progress.trials_done}/{progress.trials_total} trials",
    ]
    if progress.replayed:
        parts.append("(replayed)")
    if progress.trials_per_sec is not None:
        parts.append(f"{progress.trials_per_sec:.1f} trials/s")
    if progress.eta_seconds is not None:
        parts.append(f"ETA {progress.eta_seconds:.0f}s")
    elif progress.trials_done < progress.trials_total or not progress.trials_total:
        parts.append("ETA ?")
    return parts[0] + " " + " · ".join(parts[1:])


def validate_progress(
    payload: object, source: str = "progress"
) -> dict[str, object]:
    """Check a ``progress.json`` payload; return it on success.

    Raises ``ValueError`` listing every violation, prefixed with
    *source* — the same shape as the trace/telemetry validators, and
    the callable the :mod:`repro.analysis.schemas` registry pairs with
    the ``ltnc-fleet-progress`` writer.  Extra keys (``updated_unix``)
    are tolerated: pollers may stamp but never remove fields.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: progress payload is not a JSON object")
    if payload.get("format") != PROGRESS_FORMAT:
        errors.append(f"format {payload.get('format')!r} != {PROGRESS_FORMAT!r}")
    if payload.get("version") != PROGRESS_VERSION:
        errors.append(
            f"version {payload.get('version')!r} != {PROGRESS_VERSION}"
        )
    if not isinstance(payload.get("scenario"), str):
        errors.append("scenario is not a string")
    for key in (
        "shard_index",
        "shards_done",
        "shards_total",
        "trials_done",
        "trials_total",
    ):
        value = payload.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            errors.append(f"{key} is not a non-negative int")
    if not isinstance(payload.get("replayed"), bool):
        errors.append("replayed is not a bool")
    for key in ("trials_per_sec", "eta_seconds"):
        value = payload.get(key)
        if value is not None and (
            not isinstance(value, (int, float)) or isinstance(value, bool)
        ):
            errors.append(f"{key} is neither null nor a number")
    if errors:
        raise ValueError(f"{source}: invalid progress: " + "; ".join(errors))
    return payload


def write_progress(
    path: str | pathlib.Path, progress: FleetProgress
) -> None:
    """Atomically persist a heartbeat as ``progress.json``.

    Uses the fleet's own atomic write (tmp file + ``os.replace``) so a
    poller never reads a torn file.  Adds ``updated_unix`` — the one
    place wall-clock time is allowed, because a poller needs staleness
    detection and never feeds this back into simulation state.
    """
    payload = dict(progress.to_dict())
    # ltnc: allow[LTNC002] host-side staleness stamp for pollers, never read back
    payload["updated_unix"] = round(time.time(), 3)
    atomic_write_text(
        pathlib.Path(path), json.dumps(payload, indent=2, sort_keys=True)
    )
