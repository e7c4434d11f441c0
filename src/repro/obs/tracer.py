"""Determinism-safe trace emission: events, counters, spans → JSONL.

The paper's claims are *trajectory* claims — LTNC trades per-round
overhead for faster convergence to full rank — yet a simulation's only
output so far has been its final mergeable aggregate.  This module adds
the missing axis: a :class:`Tracer` the simulators call at round (and
optionally session) granularity, writing schema-versioned JSONL trace
files that :mod:`repro.experiments.tracestats` can replay into
rank-vs-round curves, per-phase breakdowns and completion waves.

Two implementations share the interface:

* :data:`NULL_TRACER` — a single module-level null object.  Every hook
  is a no-op and ``enabled`` is ``False``, so instrumented code guards
  its event *construction* behind one attribute check and the disabled
  path stays strictly zero-cost: no rng draws, no
  :class:`~repro.costmodel.counters.OpCounter` changes, no wall-clock
  reads.  Goldens and rng fingerprints are pinned unchanged by
  ``tests/test_obs_invariance.py``.
* :class:`JsonlTracer` — streams one JSON object per line to a file.
  Timestamps are **monotonic-clock offsets** from tracer creation
  (never wall-clock dates), so traces order correctly even across NTP
  steps; they are observability output, not part of any golden.

Trace file format (``ltnc-trace`` v1)::

    {"kind": "header", "format": "ltnc-trace", "version": 1,
     "detail": "round", ...metadata}
    {"kind": "event", "name": "round", "t": 0.0123, "round": 0, ...}
    {"kind": "counter", "name": "sessions", "t": ..., "value": 3}
    {"kind": "span", "name": "run", "t": 0.0001, "dt": 1.25, ...}

``t`` is seconds since the header; ``dt`` (spans only) is the span's
duration.  Span records come from :meth:`JsonlTracer.emit_span`, which
:class:`~repro.obs.spans.SpanRecorder` drives with begin/end pairs.
Every record is a flat JSON object, so the files stream through
``json.loads`` line by line with no framing state.
"""

from __future__ import annotations

import gzip
import json
import pathlib
import re
import time
from typing import IO, Iterable

__all__ = [
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "TRACE_DETAILS",
    "NULL_TRACER",
    "NullTracer",
    "JsonlTracer",
    "iter_events",
    "node_rank",
    "read_trace",
    "trace_filename",
]

TRACE_FORMAT = "ltnc-trace"
TRACE_VERSION = 1
#: Emission granularities: ``round`` is one event per gossip period,
#: ``session`` adds one event per push session (orders of magnitude
#: more records; use for small runs under the microscope).
TRACE_DETAILS = ("round", "session")


class NullTracer:
    """The disabled tracer: every hook is a no-op.

    Instrumented hot loops hold ``tracer.enabled`` in a local / instance
    bool and skip attribute construction entirely, so the only cost of
    carrying a tracer is the reference itself.
    """

    __slots__ = ()

    enabled = False
    detail = "round"

    def event(self, name: str, **attrs: object) -> None:
        return None

    def counter(self, name: str, value: int = 1, **attrs: object) -> None:
        return None

    def emit_span(
        self, name: str, start: float, duration: float, **attrs: object
    ) -> None:
        return None

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: The single module-level null tracer every simulator defaults to.
NULL_TRACER = NullTracer()


class JsonlTracer:
    """Streams schema-versioned trace records to a JSONL file.

    Parameters
    ----------
    path:
        Destination file (parents created).  Opened immediately; the
        header record is the first line.
    detail:
        ``"round"`` (default) or ``"session"`` — stored in the header
        and read by the simulators to decide whether per-session events
        are worth constructing.
    meta:
        Extra JSON-able fields for the header record (scenario name,
        seed, ...), so a trace is self-describing.

    A path ending in ``.gz`` streams through :mod:`gzip` (text mode)
    instead — session-detail traces compress an order of magnitude —
    and :func:`read_trace` decompresses transparently by the same
    suffix rule.

    The tracer never draws randomness and never touches simulation
    state; closing is idempotent and also happens at garbage collection
    so worker-pool trials cannot leak unflushed buffers.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        detail: str = "round",
        meta: dict[str, object] | None = None,
    ) -> None:
        if detail not in TRACE_DETAILS:
            raise ValueError(
                f"detail must be one of {TRACE_DETAILS}, got {detail!r}"
            )
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.detail = detail
        self.enabled = True
        if self.path.suffix == ".gz":
            self._fh: IO[str] | None = gzip.open(self.path, "wt")
        else:
            self._fh = open(self.path, "w")
        self._t0 = time.monotonic()
        self._emit(
            {
                "kind": "header",
                "format": TRACE_FORMAT,
                "version": TRACE_VERSION,
                "detail": detail,
                **(meta or {}),
            }
        )

    # -- emission ------------------------------------------------------
    def _emit(self, record: dict[str, object]) -> None:
        fh = self._fh
        if fh is None:  # closed: silently drop (run() closes in finally)
            return
        # ltnc: allow[LTNC007] record key order IS the pinned v1 trace format
        fh.write(json.dumps(record, separators=(",", ":")) + "\n")

    def event(self, name: str, **attrs: object) -> None:
        """One point-in-time record (a round summary, a churn, ...)."""
        self._emit(
            {
                "kind": "event",
                "name": name,
                "t": round(time.monotonic() - self._t0, 6),
                **attrs,
            }
        )

    def counter(self, name: str, value: int = 1, **attrs: object) -> None:
        """One named quantity sample (monotone or gauge; reader decides)."""
        self._emit(
            {
                "kind": "counter",
                "name": name,
                "t": round(time.monotonic() - self._t0, 6),
                "value": value,
                **attrs,
            }
        )

    def emit_span(
        self, name: str, start: float, duration: float, **attrs: object
    ) -> None:
        """One completed span with explicit monotonic *start*/*duration*.

        :class:`~repro.obs.spans.SpanRecorder` calls this once per
        closed begin/end pair; *start* is a raw ``time.monotonic()``
        reading, converted to a header offset here.
        """
        self._emit(
            {
                "kind": "span",
                "name": name,
                "t": round(start - self._t0, 6),
                "dt": round(duration, 6),
                **attrs,
            }
        )

    # -- lifecycle -----------------------------------------------------
    def close(self) -> None:
        """Flush and close the file (idempotent).

        Tolerates a half-constructed tracer (``__init__`` raised before
        the file opened) because ``__del__`` funnels through here.
        """
        fh = getattr(self, "_fh", None)
        self._fh = None
        if fh is not None:
            fh.close()

    def __enter__(self) -> "JsonlTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        self.close()


# ----------------------------------------------------------------------
# Helpers shared by the instrumented simulators and the trace readers
# ----------------------------------------------------------------------
def node_rank(node: object) -> int | None:
    """A scheme node's decoding progress as one integer, best effort.

    RLNC-family nodes expose the Gauss basis ``rank``, LTNC nodes the
    belief-propagation ``decoded_count``, WC nodes the set of natives
    ``received``.  Reading any of these is a pure state inspection — no
    rng draws, no counter charges — so tracing it cannot perturb the
    simulation.  Unknown node shapes report ``None`` and the tracer
    simply omits the field.
    """
    rank = getattr(node, "rank", None)
    if rank is not None:
        return int(rank)
    decoded = getattr(node, "decoded_count", None)
    if decoded is not None:
        return int(decoded)
    received = getattr(node, "received", None)
    if received is not None:
        return len(received)
    return None


def trace_filename(scenario: str, seed: int, compress: bool = False) -> str:
    """Filesystem-safe per-trial trace filename."""
    slug = re.sub(r"[^A-Za-z0-9_.-]+", "_", scenario) or "scenario"
    suffix = ".jsonl.gz" if compress else ".jsonl"
    return f"trace-{slug}-{seed}{suffix}"


def read_trace(path: str | pathlib.Path) -> list[dict[str, object]]:
    """Parse one JSONL trace file into its records.

    Raises ``ValueError`` naming the offending line on malformed JSON
    or non-object records, so a truncated trace fails loudly instead of
    silently dropping its tail.  Files ending in ``.gz`` are
    decompressed transparently.
    """
    records: list[dict[str, object]] = []
    path = pathlib.Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace line ({exc})"
                ) from None
            if not isinstance(record, dict):
                raise ValueError(
                    f"{path}:{lineno}: trace records must be JSON objects"
                )
            records.append(record)
    return records


def iter_events(
    records: Iterable[dict[str, object]], name: str
) -> list[dict[str, object]]:
    """All ``event`` records called *name*, in file order."""
    return [
        r
        for r in records
        if r.get("kind") == "event" and r.get("name") == name
    ]
