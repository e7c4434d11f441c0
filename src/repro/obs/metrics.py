"""Mergeable, determinism-safe metric primitives: counters, gauges,
fixed-boundary histograms.

The trial fleet runs worker processes on shards of a scenario × seed
grid; anything measured *inside* a worker must survive pickling back to
the parent and merging across trials, shards and resume cycles without
changing a single byte of the result.  Three primitive shapes satisfy
that:

* **counters** — non-negative integers that add exactly;
* **gauges** — last/min/max of a sampled value, merged in trial order
  (``last`` is the latest trial's sample, so the merged value is
  invariant to worker and shard counts, which never reorder trials);
* **histograms** — *fixed-boundary* bucket counts.  No sampling, no
  adaptive boundaries: two histograms with identical boundaries merge
  by adding bucket counts, exactly.  Boundaries are declared at first
  observation and a mismatch raises instead of silently resampling.

Everything here is observability-only and deterministic-by-construction:
no clocks, no rng, no OpCounter charges.  A :class:`MetricsCollector`
snapshot is a plain-JSON dict that round-trips losslessly (ints stay
ints, floats re-read bit-identically), which is what makes the merged
``telemetry.json`` byte-identical across worker counts × shard counts ×
interrupt/resume cycles (pinned by ``tests/test_obs_invariance.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from numbers import Integral
from typing import Mapping, Sequence

from repro.errors import SimulationError

__all__ = [
    "DEFAULT_BOUNDARIES",
    "ROUND_BOUNDARIES",
    "VOLUME_BOUNDARIES",
    "Histogram",
    "MetricsCollector",
]

#: Generic log-ish boundaries for unitless quantities.
DEFAULT_BOUNDARIES: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000,
)
#: Round indices (completion rounds, rounds-to-*): dissemination at the
#: paper's scales completes within tens of rounds, the tail within
#: hundreds.
ROUND_BOUNDARIES: tuple[float, ...] = (
    1, 2, 3, 5, 8, 12, 20, 30, 50, 80, 120, 200, 500, 1000,
)
#: Per-node / per-round volumes (packets, sessions, transfers).
VOLUME_BOUNDARIES: tuple[float, ...] = (
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 5000, 20000,
)


class Histogram:
    """Fixed-boundary histogram with exact (lossless) merges.

    ``boundaries`` is a strictly increasing tuple; bucket *i* counts
    values ``v`` with ``boundaries[i-1] < v <= boundaries[i]`` and the
    final overflow bucket everything above ``boundaries[-1]``, so there
    are ``len(boundaries) + 1`` buckets.  Alongside the buckets the
    histogram keeps exact ``count`` / ``sum`` / ``min`` / ``max``, so
    merged summaries stay exact even though bucket membership is
    coarse.  Observations are integers: a float sum would depend on
    how shards group the trials, so a fraction is observed in integer
    units (ppm, say).
    """

    __slots__ = ("boundaries", "counts", "count", "sum", "min", "max")

    def __init__(self, boundaries: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in boundaries)
        if not bounds:
            raise SimulationError("histogram needs at least one boundary")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise SimulationError(
                f"histogram boundaries must be strictly increasing: {bounds}"
            )
        self.boundaries = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    def observe(self, value: int, n: int = 1) -> None:
        """Record *n* occurrences of the integer *value*."""
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise SimulationError(
                f"histogram observations must be integers, got {value!r}"
            )
        if n < 1:
            raise SimulationError(f"observation count must be >= 1, got {n}")
        value = int(value)
        self.counts[bisect_left(self.boundaries, value)] += n
        self.count += n
        self.sum += value * n
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold *other* in; boundaries must match exactly."""
        if other.boundaries != self.boundaries:
            raise SimulationError(
                "cannot merge histograms with different boundaries: "
                f"{self.boundaries} vs {other.boundaries}"
            )
        for i, c in enumerate(other.counts):
            self.counts[i] += c
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def to_dict(self) -> dict[str, object]:
        return {
            "boundaries": list(self.boundaries),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Histogram":
        hist = cls(payload["boundaries"])  # type: ignore[arg-type]
        counts = payload.get("counts")
        if (
            not isinstance(counts, list)
            or len(counts) != len(hist.counts)
            or not all(isinstance(c, int) and c >= 0 for c in counts)
        ):
            raise SimulationError(
                f"malformed histogram counts: {counts!r}"
            )
        total = payload.get("sum", 0)
        if not isinstance(total, int) or isinstance(total, bool):
            raise SimulationError(f"histogram sum is not an integer: {total!r}")
        hist.counts = list(counts)
        hist.count = int(payload.get("count", 0))
        hist.sum = total
        hist.min = payload.get("min")  # type: ignore[assignment]
        hist.max = payload.get("max")  # type: ignore[assignment]
        return hist


class MetricsCollector:
    """Per-trial telemetry sink the simulators record into.

    The recording API is deliberately tiny — :meth:`count`,
    :meth:`gauge`, :meth:`observe`, :meth:`label` — and every call is
    pure dict arithmetic.  :meth:`snapshot` freezes the state into a
    plain-JSON dict (keys sorted) and :meth:`merge_snapshot` folds such
    a snapshot back in, exactly; the runner merges per-trial snapshots
    in trial order, so merged telemetry is invariant to worker count,
    shard count and resume history.
    """

    __slots__ = ("labels", "counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.labels: dict[str, str] = {}
        self.counters: dict[str, int] = {}
        #: name -> {"last", "min", "max", "samples"}
        self.gauges: dict[str, dict[str, float | int]] = {}
        self.histograms: dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------
    def label(self, key: str, value: str) -> None:
        """Attach a constant annotation (scheme name, workload kind)."""
        self.labels[key] = str(value)

    def count(self, name: str, value: int = 1) -> None:
        """Add *value* to counter *name* (monotone, exact-merge)."""
        if value < 0:
            raise SimulationError(
                f"counter {name!r} increment must be >= 0, got {value}"
            )
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float | int) -> None:
        """Sample gauge *name*: tracks last / min / max / sample count."""
        cell = self.gauges.get(name)
        if cell is None:
            self.gauges[name] = {
                "last": value, "min": value, "max": value, "samples": 1,
            }
            return
        cell["last"] = value
        if value < cell["min"]:
            cell["min"] = value
        if value > cell["max"]:
            cell["max"] = value
        cell["samples"] += 1

    def observe(
        self,
        name: str,
        value: int,
        boundaries: Sequence[float] | None = None,
        n: int = 1,
    ) -> None:
        """Record the integer *value* into histogram *name*.

        The first observation fixes the boundaries (*boundaries*, or
        :data:`DEFAULT_BOUNDARIES`); later calls may repeat the same
        boundaries or omit them, but a different set raises — exact
        merges depend on every worker agreeing on the buckets.
        """
        hist = self.histograms.get(name)
        if hist is None:
            hist = Histogram(
                boundaries if boundaries is not None else DEFAULT_BOUNDARIES
            )
            self.histograms[name] = hist
        elif boundaries is not None and tuple(
            float(b) for b in boundaries
        ) != hist.boundaries:
            raise SimulationError(
                f"histogram {name!r} boundaries changed mid-run: "
                f"{hist.boundaries} vs {tuple(boundaries)}"
            )
        try:
            hist.observe(value, n)
        except SimulationError as exc:
            raise SimulationError(f"histogram {name!r}: {exc}") from None

    # -- merge / serialisation -----------------------------------------
    def snapshot(self) -> dict[str, object]:
        """The collector's state as a plain-JSON dict (keys sorted)."""
        return {
            "labels": dict(sorted(self.labels.items())),
            "counters": dict(sorted(self.counters.items())),
            "gauges": {
                name: dict(sorted(cell.items()))
                for name, cell in sorted(self.gauges.items())
            },
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self.histograms.items())
            },
        }

    def merge_snapshot(self, snapshot: Mapping[str, object]) -> None:
        """Fold a :meth:`snapshot` dict in, exactly.

        Merge order matters only for gauges (``last`` takes the incoming
        side), so callers must merge in trial order — which the runner's
        order-preserving dispatch guarantees.  Unknown top-level keys
        (e.g. the ``n_trials`` bookkeeping the fleet adds) are ignored.
        """
        if not isinstance(snapshot, Mapping):
            raise SimulationError(
                f"telemetry snapshot must be a mapping, got {type(snapshot)!r}"
            )
        for key, value in (snapshot.get("labels") or {}).items():
            self.labels[key] = str(value)
        for name, value in (snapshot.get("counters") or {}).items():
            if not isinstance(value, int) or value < 0:
                raise SimulationError(
                    f"counter {name!r} in snapshot is not a "
                    f"non-negative integer: {value!r}"
                )
            self.counters[name] = self.counters.get(name, 0) + value
        for name, cell in (snapshot.get("gauges") or {}).items():
            try:
                last, lo, hi, samples = (
                    cell["last"], cell["min"], cell["max"], cell["samples"],
                )
            except (TypeError, KeyError):
                raise SimulationError(
                    f"gauge {name!r} in snapshot is malformed: {cell!r}"
                ) from None
            mine = self.gauges.get(name)
            if mine is None:
                self.gauges[name] = {
                    "last": last, "min": lo, "max": hi, "samples": samples,
                }
            else:
                mine["last"] = last
                if lo < mine["min"]:
                    mine["min"] = lo
                if hi > mine["max"]:
                    mine["max"] = hi
                mine["samples"] += samples
        for name, payload in (snapshot.get("histograms") or {}).items():
            incoming = Histogram.from_dict(payload)
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = incoming
            else:
                mine.merge(incoming)

    def merge(self, other: "MetricsCollector") -> None:
        """Fold another collector in (trial-order semantics, as above)."""
        self.merge_snapshot(other.snapshot())

    def __bool__(self) -> bool:
        return bool(self.counters or self.gauges or self.histograms)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MetricsCollector(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )
