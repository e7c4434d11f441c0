"""Bench-trajectory regression detection over ``BENCH_ltnc.json`` files.

:mod:`repro.experiments.perfbench` snapshots the harness's throughput
as a schema-versioned JSON report.  This module is the *diff* half of
that trajectory: it loads two such reports (an old/reference one and a
new/candidate one), flattens every comparable rate into per-row deltas,
and exits non-zero when any rate fell below the configurable slowdown
tolerance.  Wired into CI, it is the first automated guard on the perf
trajectory — a ≥2× slowdown in any kernel, end-to-end scheme or fleet
row trips the default gate.

Comparison semantics:

* Only *rates* (ops/sec-shaped numbers) are compared — absolute wall
  times vary with the host and are not row material.
* A row regresses when ``new/old < 1/max_slowdown``; speedups never
  fail (they are reported as improvements).
* Rows present on only one side are reported but never fatal — schema
  growth (a new k, a new scheme) must not break the gate.
* Both inputs are schema-validated first
  (:func:`repro.experiments.perfbench.validate_bench`); an invalid
  report exits with status 2, distinct from a genuine regression (1).

Usage::

    python -m repro.experiments.benchdiff OLD.json NEW.json
    python -m repro.experiments.benchdiff --history benchmarks/history/
    python -m repro.experiments.benchdiff --history benchmarks/history/ --window 5
    python -m repro.experiments.benchdiff OLD NEW --max-slowdown 1.2
    python -m repro.experiments.benchdiff OLD NEW --warn-only --json d.json

``--history DIR`` compares the two most recent reports (by the UTC
stamp perfbench's ``--history-dir`` embeds in filenames, lexicographic
filename tie-break) instead of two explicit paths.

``--window K`` (history mode only) additionally runs *trend* detection
over the last K reports: the newest report is compared against the
window **median** of every older report in the window.  This catches
slow drift — K-1 consecutive steps each inside the pairwise tolerance
whose product is not — while the median keeps one noisy CI host from
poisoning the baseline.  A trend regression fails the gate exactly like
a pairwise one.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import re
import statistics
import sys

from repro.experiments.perfbench import validate_bench
from repro.fileio import atomic_write_text

__all__ = [
    "diff_reports",
    "extract_rows",
    "history_window",
    "latest_pair",
    "load_report",
    "main",
    "render_diff",
    "render_trend",
    "trend_diff",
]

#: Default tolerance: a row must not be more than this factor slower.
#: 1.5 trips on the canonical "did we accidentally 2x-slow a kernel"
#: regression while riding out ordinary CI-host jitter.
DEFAULT_MAX_SLOWDOWN = 1.5

#: Exit statuses: 0 = within tolerance, 1 = regression, 2 = bad input.
EXIT_OK = 0
EXIT_REGRESSION = 1
EXIT_INVALID = 2


def load_report(path: str | pathlib.Path) -> dict:
    """Parse and schema-validate one BENCH report.

    Raises ``ValueError`` naming the file on unreadable/invalid input,
    so the CLI can map every bad-input shape to exit status 2.
    """
    p = pathlib.Path(path)
    try:
        payload = json.loads(p.read_text())
    except OSError as exc:
        raise ValueError(f"{p}: unreadable ({exc})") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(f"{p}: not valid JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{p}: top level is not an object")
    try:
        validate_bench(payload)
    except ValueError as exc:
        raise ValueError(f"{p}: {exc}") from exc
    return payload


def extract_rows(report: dict) -> dict[str, float]:
    """Flatten a BENCH report into ``{row name: rate}``.

    Row names are stable, human-readable dotted paths
    (``microbench.rref_insert_reduce[k=64].ops_per_sec``), so two
    reports of different schema versions still align on their shared
    rows.  Only positive finite numbers survive — a malformed cell
    simply contributes no row rather than poisoning the diff.
    """
    rows: dict[str, float] = {}

    def put(name: str, value: object) -> None:
        if isinstance(value, (int, float)) and value > 0:
            rows[name] = float(value)

    micro = report.get("microbench", {})
    if isinstance(micro, dict):
        for bench, rate_keys in (
            ("rref_insert_reduce", ("ops_per_sec",)),
            (
                "bitvector",
                (
                    "ixor_per_sec",
                    "first_index_per_sec",
                    "weight_per_sec",
                    "indices_per_sec",
                ),
            ),
            ("decode", ("gauss_packets_per_sec", "bp_packets_per_sec")),
        ):
            section = micro.get(bench, {})
            if not isinstance(section, dict):
                continue
            for k_label, entry in sorted(section.items()):
                if not isinstance(entry, dict):
                    continue
                for rate_key in rate_keys:
                    put(
                        f"microbench.{bench}[{k_label}].{rate_key}",
                        entry.get(rate_key),
                    )
    e2e = report.get("end_to_end", {})
    if isinstance(e2e, dict):
        for scheme, entry in sorted(e2e.items()):
            if isinstance(entry, dict):
                put(
                    f"end_to_end[{scheme}].rounds_per_sec",
                    entry.get("rounds_per_sec"),
                )
    fleet = report.get("fleet", {})
    if isinstance(fleet, dict):
        put("fleet.trials_per_sec", fleet.get("trials_per_sec"))
    return rows


def diff_reports(
    old: dict, new: dict, max_slowdown: float = DEFAULT_MAX_SLOWDOWN
) -> dict:
    """Per-row deltas between two BENCH reports.

    Returns a deterministic payload (rows sorted by name)::

        {"max_slowdown": 1.5,
         "rows": [{"name", "old", "new", "ratio", "regressed"}, ...],
         "only_old": [...], "only_new": [...],
         "n_regressed": int}

    ``ratio`` is ``new/old`` (>1 means faster); ``regressed`` is
    ``ratio < 1/max_slowdown``.
    """
    if max_slowdown < 1.0:
        raise ValueError(
            f"max_slowdown must be >= 1.0, got {max_slowdown}"
        )
    old_rows = extract_rows(old)
    new_rows = extract_rows(new)
    shared = sorted(set(old_rows) & set(new_rows))
    threshold = 1.0 / max_slowdown
    rows = []
    n_regressed = 0
    for name in shared:
        ratio = new_rows[name] / old_rows[name]
        regressed = ratio < threshold
        n_regressed += regressed
        rows.append(
            {
                "name": name,
                "old": old_rows[name],
                "new": new_rows[name],
                "ratio": round(ratio, 4),
                "regressed": regressed,
            }
        )
    return {
        "suite": "ltnc-benchdiff",
        "max_slowdown": max_slowdown,
        "rows": rows,
        "only_old": sorted(set(old_rows) - set(new_rows)),
        "only_new": sorted(set(new_rows) - set(old_rows)),
        "n_rows": len(rows),
        "n_regressed": n_regressed,
    }


def render_diff(diff: dict, annotate: bool = False) -> list[str]:
    """Human-readable report lines for one diff payload.

    With *annotate*, each regressed row also yields a GitHub Actions
    ``::warning::`` line so CI surfaces drift inline on the run page.
    """
    lines = []
    for row in diff["rows"]:
        marker = "REGRESSED" if row["regressed"] else "ok"
        lines.append(
            f"{marker:>9}  {row['name']}: "
            f"{row['old']:.1f} -> {row['new']:.1f} "
            f"(x{row['ratio']:.2f})"
        )
        if annotate and row["regressed"]:
            lines.append(
                f"::warning::bench regression {row['name']}: "
                f"x{row['ratio']:.2f} (tolerance x{1.0/diff['max_slowdown']:.2f})"
            )
    for name in diff["only_old"]:
        lines.append(f"  dropped  {name} (only in old report)")
    for name in diff["only_new"]:
        lines.append(f"      new  {name} (only in new report)")
    lines.append(
        f"{diff['n_regressed']}/{diff['n_rows']} rows regressed "
        f"(tolerance: {diff['max_slowdown']}x slowdown)"
    )
    return lines


#: The UTC stamp perfbench's ``--history-dir`` embeds in report names.
_STAMP_RE = re.compile(r"(\d{8}T\d{6}Z)")


def _history_key(path: pathlib.Path) -> tuple[str, str]:
    """Sort key for history reports: (embedded UTC stamp, filename).

    Recency is the timestamp perfbench stamps into the name, so a
    differently-prefixed copy still sorts chronologically; two reports
    sharing a stamp (same-second reruns, hand-made copies) tie-break on
    full lexicographic filename — the pair picked is deterministic
    whatever order the filesystem lists them.  Files without a stamp
    fall back to pure filename order.
    """
    match = _STAMP_RE.search(path.name)
    return (match.group(1) if match else path.name, path.name)


def latest_pair(directory: str | pathlib.Path) -> tuple[pathlib.Path, pathlib.Path]:
    """The two most recent reports in a ``--history`` directory.

    Recency is the embedded ``bench-YYYYmmddTHHMMSSZ.json`` UTC stamp
    with a deterministic lexicographic-filename tie-break (see
    :func:`_history_key`).  Raises ``ValueError`` with a clear message
    when fewer than two reports exist.
    """
    d = pathlib.Path(directory)
    reports = sorted(
        (p for p in d.glob("*.json") if p.is_file()), key=_history_key
    )
    if len(reports) < 2:
        raise ValueError(
            f"{d}: need at least two *.json reports to diff, "
            f"found {len(reports)}"
        )
    return reports[-2], reports[-1]


def history_window(
    directory: str | pathlib.Path, window: int
) -> list[pathlib.Path]:
    """The most recent *window* reports in a ``--history`` directory.

    Returned oldest → newest under the same recency order as
    :func:`latest_pair`.  A window larger than the directory simply
    returns everything — early in a trajectory the trend baseline is
    whatever history exists.  Raises ``ValueError`` below two reports
    (no trend without history) or a window below two (a 1-report
    "window" has no baseline to drift from).
    """
    if window < 2:
        raise ValueError(f"--window must be >= 2, got {window}")
    d = pathlib.Path(directory)
    reports = sorted(
        (p for p in d.glob("*.json") if p.is_file()), key=_history_key
    )
    if len(reports) < 2:
        raise ValueError(
            f"{d}: need at least two *.json reports for a trend window, "
            f"found {len(reports)}"
        )
    return reports[-window:]


def trend_diff(
    reports: list[dict], max_slowdown: float = DEFAULT_MAX_SLOWDOWN
) -> dict:
    """Newest report vs the window-median baseline of the older ones.

    For every row present in the newest report *and every* older report
    in the window, the baseline is the **median** rate across the older
    reports; the row regresses when ``new/baseline < 1/max_slowdown``.
    Pairwise diffs miss monotone drift (each step inside tolerance,
    their product not); the median baseline trips on it while shrugging
    off a single slow CI host in the window.  Rows missing from any
    report are skipped — schema growth mid-window must not break the
    gate, same contract as :func:`diff_reports`.
    """
    if len(reports) < 2:
        raise ValueError(
            f"trend window needs at least two reports, got {len(reports)}"
        )
    if max_slowdown < 1.0:
        raise ValueError(
            f"max_slowdown must be >= 1.0, got {max_slowdown}"
        )
    older = [extract_rows(r) for r in reports[:-1]]
    new_rows = extract_rows(reports[-1])
    shared = set(new_rows)
    for rows in older:
        shared &= set(rows)
    threshold = 1.0 / max_slowdown
    trend_rows = []
    n_regressed = 0
    for name in sorted(shared):
        baseline = statistics.median(rows[name] for rows in older)
        ratio = new_rows[name] / baseline
        regressed = ratio < threshold
        n_regressed += regressed
        trend_rows.append(
            {
                "name": name,
                "baseline": round(baseline, 4),
                "new": new_rows[name],
                "ratio": round(ratio, 4),
                "regressed": regressed,
            }
        )
    return {
        "suite": "ltnc-benchdiff-trend",
        "window": len(reports),
        "max_slowdown": max_slowdown,
        "rows": trend_rows,
        "n_rows": len(trend_rows),
        "n_regressed": n_regressed,
    }


def render_trend(trend: dict, annotate: bool = False) -> list[str]:
    """Human-readable lines for one trend payload (cf. render_diff).

    Only drifting rows are itemized — a trend report over a full BENCH
    schema has dozens of rows and the pairwise diff above it already
    lists them all; the trend section exists to surface the drifts.
    """
    lines = [f"trend over last {trend['window']} reports (median baseline):"]
    for row in trend["rows"]:
        if not row["regressed"]:
            continue
        lines.append(
            f"  DRIFTED  {row['name']}: median {row['baseline']:.1f} "
            f"-> {row['new']:.1f} (x{row['ratio']:.2f})"
        )
        if annotate:
            lines.append(
                f"::warning::bench trend drift {row['name']}: "
                f"x{row['ratio']:.2f} over {trend['window']} reports "
                f"(tolerance x{1.0/trend['max_slowdown']:.2f})"
            )
    lines.append(
        f"{trend['n_regressed']}/{trend['n_rows']} rows drifted "
        f"(tolerance: {trend['max_slowdown']}x vs window median)"
    )
    return lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.benchdiff",
        description="Diff two BENCH_ltnc.json reports and fail on "
        "throughput regression.",
    )
    parser.add_argument(
        "reports",
        nargs="*",
        metavar="REPORT",
        help="OLD and NEW bench report paths (exactly two, "
        "unless --history is used)",
    )
    parser.add_argument(
        "--history",
        default=None,
        metavar="DIR",
        help="compare the two most recent *.json reports in DIR "
        "instead of explicit paths",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="K",
        help="(with --history) also detect trend drift: compare the "
        "newest report against the median of the previous K-1 reports",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=DEFAULT_MAX_SLOWDOWN,
        metavar="X",
        help="fail when any rate is more than X times slower "
        f"(default: {DEFAULT_MAX_SLOWDOWN})",
    )
    parser.add_argument(
        "--warn-only",
        action="store_true",
        help="report regressions (with ::warning:: CI annotations) "
        "but exit 0; schema-invalid input still exits 2",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help="also write the diff payload here (atomic write)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.max_slowdown < 1.0:
        parser.error(
            f"--max-slowdown must be >= 1.0, got {args.max_slowdown}"
        )
    if args.window is not None:
        if args.history is None:
            parser.error("--window only applies to --history mode")
        if args.window < 2:
            parser.error(f"--window must be >= 2, got {args.window}")
    window_paths: list[pathlib.Path] = []
    if args.history is not None:
        if args.reports:
            parser.error("--history and explicit REPORT paths are exclusive")
        try:
            if args.window is not None:
                window_paths = history_window(args.history, args.window)
                old_path, new_path = window_paths[-2], window_paths[-1]
            else:
                old_path, new_path = latest_pair(args.history)
        except ValueError as exc:
            print(f"benchdiff: {exc}", file=sys.stderr)
            return EXIT_INVALID
        print(f"history diff: {old_path.name} -> {new_path.name}")
    elif len(args.reports) == 2:
        old_path, new_path = args.reports
    else:
        parser.error(
            f"expected exactly two REPORT paths (or --history DIR), "
            f"got {len(args.reports)}"
        )
    try:
        old = load_report(old_path)
        new = load_report(new_path)
        window_reports = [load_report(p) for p in window_paths[:-2]]
    except ValueError as exc:
        print(f"benchdiff: {exc}", file=sys.stderr)
        return EXIT_INVALID
    diff = diff_reports(old, new, max_slowdown=args.max_slowdown)
    trend = None
    if window_paths:
        trend = trend_diff(
            window_reports + [old, new], max_slowdown=args.max_slowdown
        )
        diff["trend"] = trend
    for line in render_diff(diff, annotate=args.warn_only):
        print(line)
    if trend is not None:
        for line in render_trend(trend, annotate=args.warn_only):
            print(line)
    if args.json:
        out = atomic_write_text(
            pathlib.Path(args.json),
            json.dumps(diff, sort_keys=True, indent=2) + "\n",
        )
        print(f"wrote {out}", file=sys.stderr)
    n_bad = diff["n_regressed"] + (trend["n_regressed"] if trend else 0)
    if n_bad and not args.warn_only:
        return EXIT_REGRESSION
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
