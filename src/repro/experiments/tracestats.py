"""Trace analysis: replay ``ltnc-trace`` JSONL files into curves.

The tracer (:mod:`repro.obs`) writes one JSONL file per traced trial;
this module is its reader.  It validates the schema, then folds the
records into the three views the paper's trajectory claims need:

* **rank-vs-round curve** — decoding progress per gossip period
  (``rank_total`` / ``rank_min`` / ``rank_max`` from the per-round
  events), the x-axis of the §IV-B convergence argument;
* **completion wave** — how many nodes (or catalogue interest pairs)
  finished in each round, from the per-completion events;
* **phase breakdown** — the profiler's sampling / channel / encode /
  decode / refine split when the trace came from a profiled run.

Library use::

    from repro.experiments.tracestats import validate_trace, trace_summary
    records = read_trace("traces/trace-baseline-2010.jsonl")
    header = validate_trace(records)
    summary = trace_summary(records)

CLI use::

    python -m repro.experiments.tracestats traces/*.jsonl
    python -m repro.experiments.tracestats --validate traces/*.jsonl
    python -m repro.experiments.tracestats --curve traces/trace-baseline-0.jsonl
    python -m repro.experiments.tracestats --json out.json traces/*.jsonl

``--validate`` checks each file's schema and that its counters
reconcile (exit 1 on the first invalid file) — the CI smoke step runs
it over every trace the workflow produced.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Iterable, Sequence

from repro.fileio import atomic_write_text
from repro.obs import (
    PHASES,
    TRACE_DETAILS,
    TRACE_FORMAT,
    TRACE_VERSION,
    iter_events,
    read_trace,
)

__all__ = [
    "validate_trace",
    "reconcile_trace",
    "trace_summary",
    "rank_curve",
    "completion_wave",
    "phase_breakdown",
    "counter_totals",
    "span_summary",
    "telemetry_overview",
    "main",
]

#: Record kinds an ``ltnc-trace`` v1 file may contain.
_KINDS = ("header", "event", "counter", "span")


def validate_trace(
    records: Sequence[dict[str, object]], source: str = "trace"
) -> dict[str, object]:
    """Check *records* against the ``ltnc-trace`` v1 schema.

    Returns the header record on success; raises ``ValueError`` listing
    every violation (prefixed with *source* for multi-file runs).  The
    checks mirror what :mod:`repro.obs.tracer` emits: exactly one
    header, first; known kinds only; named events/counters; numeric
    non-negative timestamps; counters carry integer values.
    """
    errors: list[str] = []
    if not records:
        raise ValueError(f"{source}: empty trace (no records)")
    header = records[0]
    if header.get("kind") != "header":
        errors.append("first record is not the header")
        header = {}
    else:
        if header.get("format") != TRACE_FORMAT:
            errors.append(
                f"header.format {header.get('format')!r} != {TRACE_FORMAT!r}"
            )
        if header.get("version") != TRACE_VERSION:
            errors.append(
                f"header.version {header.get('version')!r} != {TRACE_VERSION}"
            )
        if header.get("detail") not in TRACE_DETAILS:
            errors.append(
                f"header.detail {header.get('detail')!r} not in "
                f"{TRACE_DETAILS}"
            )
    for index, record in enumerate(records[1:], start=2):
        kind = record.get("kind")
        if kind == "header":
            errors.append(f"record {index}: duplicate header")
            continue
        if kind not in _KINDS:
            errors.append(f"record {index}: unknown kind {kind!r}")
            continue
        t = record.get("t")
        if not isinstance(t, (int, float)) or t < 0:
            errors.append(f"record {index}: bad timestamp {t!r}")
        if not record.get("name"):
            errors.append(f"record {index}: {kind} record has no name")
        if kind == "counter" and not isinstance(record.get("value"), int):
            errors.append(
                f"record {index}: counter value "
                f"{record.get('value')!r} is not an integer"
            )
        if kind == "span":
            dt = record.get("dt")
            if not isinstance(dt, (int, float)) or dt < 0:
                errors.append(f"record {index}: bad span duration {dt!r}")
    if errors:
        raise ValueError(
            f"{source}: invalid trace: " + "; ".join(errors)
        )
    return header


def reconcile_trace(
    records: Sequence[dict[str, object]], source: str = "trace"
) -> None:
    """Raise ``ValueError`` unless the ``round`` events add up.

    Per-round deltas of a name that is also a ``counter`` record
    (``sessions``, ``aborted``, ...) sum to its value, and the
    ``complete`` events number the last round's ``completed`` (or
    ``completed_pairs``).
    """
    rounds = iter_events(records, "round")
    errors = []
    for name, value in sorted(counter_totals(records).items()):
        if any(name in event for event in rounds):
            total = sum(event.get(name, 0) for event in rounds)
            if total != value:
                errors.append(f"per-round {name} sums to {total}, counter to {value}")
    last = rounds[-1] if rounds else {}
    completed = last.get("completed", last.get("completed_pairs"))
    completions = len(iter_events(records, "complete"))
    if completed is not None and completions != completed:
        errors.append(f"{completions} complete events, last round has {completed}")
    if errors:
        raise ValueError(f"{source}: counters do not reconcile: " + "; ".join(errors))


# ----------------------------------------------------------------------
# Views
# ----------------------------------------------------------------------
def rank_curve(
    records: Iterable[dict[str, object]],
) -> list[dict[str, object]]:
    """Decoding progress per round, oldest first.

    One row per ``round`` event: ``round``, ``completed`` (or
    ``completed_pairs`` for catalogue traces), and the rank stats when
    the simulator reported them.  Rows keep only the keys the trace
    actually carried, so catalogue and wireless traces both work.
    """
    keys = (
        "round",
        "completed",
        "completed_pairs",
        "pairs_total",
        "rank_total",
        "rank_min",
        "rank_max",
    )
    return [
        {k: event[k] for k in keys if event.get(k) is not None}
        for event in iter_events(records, "round")
    ]


def completion_wave(
    records: Iterable[dict[str, object]],
) -> dict[int, int]:
    """``{round: completions}`` — how many finished in each round."""
    wave: dict[int, int] = {}
    for event in iter_events(records, "complete"):
        round_index = event.get("round")
        if isinstance(round_index, int):
            wave[round_index] = wave.get(round_index, 0) + 1
    return dict(sorted(wave.items()))


def phase_breakdown(
    records: Iterable[dict[str, object]],
) -> dict[str, dict[str, float | int]] | None:
    """The profiler's per-phase table, or ``None`` for unprofiled runs."""
    events = iter_events(records, "phases")
    if not events:
        return None
    table = events[-1].get("phases")
    return table if isinstance(table, dict) else None


def counter_totals(
    records: Iterable[dict[str, object]],
) -> dict[str, int]:
    """Final value per counter name (last sample wins, in file order)."""
    totals: dict[str, int] = {}
    for record in records:
        if record.get("kind") == "counter":
            name = record.get("name")
            value = record.get("value")
            if isinstance(name, str) and isinstance(value, int):
                totals[name] = value
    return totals


def span_summary(
    records: Iterable[dict[str, object]],
) -> dict[str, dict[str, float | int]]:
    """Per-name span timing totals from a trace's ``span`` records.

    ``{name: {calls, seconds, mean, max, max_depth}}``, names sorted.
    Spans are the in-worker begin/end timers the simulators emit
    through :class:`~repro.obs.spans.SpanRecorder`; a trace without
    spans yields an empty dict.
    """
    table: dict[str, dict[str, float | int]] = {}
    for record in records:
        if record.get("kind") != "span":
            continue
        name = record.get("name")
        dt = record.get("dt")
        if not isinstance(name, str) or not isinstance(dt, (int, float)):
            continue
        cell = table.setdefault(
            name,
            {"calls": 0, "seconds": 0.0, "max": 0.0, "max_depth": 0},
        )
        cell["calls"] += 1
        cell["seconds"] = round(cell["seconds"] + dt, 6)
        cell["max"] = round(max(cell["max"], dt), 6)
        depth = record.get("depth")
        if isinstance(depth, int):
            cell["max_depth"] = max(cell["max_depth"], depth)
    for cell in table.values():
        cell["mean"] = round(cell["seconds"] / cell["calls"], 6)
    return dict(sorted(table.items()))


def telemetry_overview(payload: dict[str, object]) -> list[str]:
    """One summary line per scenario of an ``ltnc-telemetry`` file."""
    lines = []
    scenarios = payload.get("scenarios", {})
    for name, section in sorted(scenarios.items()):
        counters = section.get("counters", {})
        histograms = section.get("histograms", {})
        lines.append(
            f"{name}: trials={section.get('n_trials')}  "
            f"counters={len(counters)}  gauges={len(section.get('gauges', {}))}  "
            f"histograms={len(histograms)}"
        )
    return lines


def trace_summary(
    records: Sequence[dict[str, object]],
) -> dict[str, object]:
    """One JSON-able digest of a trace: header, curves, totals."""
    header = records[0] if records else {}
    curve = rank_curve(records)
    wave = completion_wave(records)
    return {
        "scenario": header.get("scenario"),
        "seed": header.get("seed"),
        "detail": header.get("detail"),
        "n_records": len(records),
        "rounds": len(curve),
        "completions": sum(wave.values()),
        "rank_curve": curve,
        "completion_wave": {str(k): v for k, v in wave.items()},
        "phases": phase_breakdown(records),
        "counters": counter_totals(records),
        "spans": span_summary(records),
    }


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _print_summary(path: pathlib.Path, summary: dict[str, object]) -> None:
    counters = summary["counters"]
    bits = [
        f"{summary['scenario'] or path.name}",
        f"seed={summary['seed']}",
        f"detail={summary['detail']}",
        f"rounds={summary['rounds']}",
        f"completions={summary['completions']}",
    ]
    if counters:
        bits.append(
            "counters: "
            + ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        )
    print("  ".join(bits))


def _print_curve(summary: dict[str, object]) -> None:
    curve = summary["rank_curve"]
    if not curve:
        print("  (no round events)")
        return
    keys = [
        k
        for k in (
            "completed",
            "completed_pairs",
            "rank_total",
            "rank_min",
            "rank_max",
        )
        if any(k in row for row in curve)
    ]
    print("  " + "  ".join(["round"] + keys))
    for row in curve:
        cells = [f"{row.get('round', '?'):>5}"] + [
            f"{row.get(k, ''):>{len(k)}}" for k in keys
        ]
        print("  " + "  ".join(cells))


def _print_wave(summary: dict[str, object]) -> None:
    wave = summary["completion_wave"]
    if not wave:
        print("  (no completion events)")
        return
    print("  round  completions")
    for round_index, count in wave.items():
        print(f"  {round_index:>5}  {count:>11}")


def _print_phases(summary: dict[str, object]) -> None:
    table = summary["phases"]
    if not table:
        print("  (no phases event — run with profiling enabled)")
        return
    print(f"  {'phase':<10} {'seconds':>10} {'calls':>8} {'fraction':>9}")
    ordered = [p for p in PHASES if p in table] + sorted(
        p for p in table if p not in PHASES
    )
    for phase in ordered:
        cell = table[phase]
        print(
            f"  {phase:<10} {cell.get('seconds', 0):>10.6f} "
            f"{cell.get('calls', 0):>8} {cell.get('fraction', 0):>9.4f}"
        )


def _print_spans(summary: dict[str, object]) -> None:
    table = summary["spans"]
    if not table:
        print("  (no span records)")
        return
    print(
        f"  {'span':<10} {'calls':>8} {'seconds':>10} "
        f"{'mean':>10} {'max':>10} {'depth':>6}"
    )
    for name, cell in table.items():
        print(
            f"  {name:<10} {cell['calls']:>8} {cell['seconds']:>10.6f} "
            f"{cell['mean']:>10.6f} {cell['max']:>10.6f} "
            f"{cell['max_depth']:>6}"
        )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.tracestats",
        description="Validate and summarise ltnc-trace JSONL files "
        "(rank-vs-round curves, completion waves, phase breakdowns).",
    )
    parser.add_argument(
        "traces",
        nargs="*",
        metavar="TRACE",
        help="trace JSONL file(s) (.jsonl or .jsonl.gz)",
    )
    parser.add_argument(
        "--validate",
        action="store_true",
        help="check schema and counter reconciliation only; exit 1 on "
        "the first invalid file",
    )
    parser.add_argument(
        "--curve",
        action="store_true",
        help="print the rank-vs-round curve per file",
    )
    parser.add_argument(
        "--wave",
        action="store_true",
        help="print the completion wave per file",
    )
    parser.add_argument(
        "--phases",
        action="store_true",
        help="print the per-phase time breakdown per file",
    )
    parser.add_argument(
        "--spans",
        action="store_true",
        help="print the per-span timing table per file",
    )
    parser.add_argument(
        "--telemetry",
        default=None,
        metavar="FILE",
        help="also validate and summarise an ltnc-telemetry "
        "telemetry.json (exit 1 when invalid)",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="also write every file's full summary as one JSON object",
    )
    args = parser.parse_args(argv)
    if not args.traces and not args.telemetry:
        parser.error("need at least one TRACE file (or --telemetry FILE)")
    try:
        return _run(args)
    except BrokenPipeError:  # piped through `head` — not an error
        import os

        # Point stdout at /dev/null so interpreter shutdown's implicit
        # flush cannot raise again; close the opened fd once dup2 has
        # duplicated it or it leaks on every truncated pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 0


def _run(args: argparse.Namespace) -> int:
    summaries: dict[str, object] = {}
    for name in args.traces:
        path = pathlib.Path(name)
        try:
            records = read_trace(path)
            validate_trace(records, source=str(path))
            reconcile_trace(records, source=str(path))
        except (OSError, ValueError) as exc:
            print(f"INVALID {exc}", file=sys.stderr)
            return 1
        if args.validate:
            print(f"OK {path}")
            continue
        summary = trace_summary(records)
        summaries[str(path)] = summary
        _print_summary(path, summary)
        if args.curve:
            _print_curve(summary)
        if args.wave:
            _print_wave(summary)
        if args.phases:
            _print_phases(summary)
        if args.spans:
            _print_spans(summary)
    if args.telemetry:
        from repro.obs.telemetry import read_telemetry

        path = pathlib.Path(args.telemetry)
        try:
            payload = read_telemetry(path)
        except (OSError, ValueError) as exc:
            print(f"INVALID {exc}", file=sys.stderr)
            return 1
        print(f"OK {path}")
        for line in telemetry_overview(payload):
            print(f"  {line}")
    if args.json and not args.validate:
        out = atomic_write_text(
            pathlib.Path(args.json),
            json.dumps(summaries, indent=2, sort_keys=True) + "\n",
        )
        print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
