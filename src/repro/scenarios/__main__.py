"""The sweep CLI: scenario presets, groups and schemes through the fleet.

Examples::

    python -m repro.scenarios --list
    python -m repro.scenarios --schemes
    python -m repro.scenarios --scenario churn --trials 8 --workers 4 --seed 7
    python -m repro.scenarios --scenario all --trials 4 --workers 8 \
        --scale quick --out benchmarks/out/scenarios.json
    python -m repro.scenarios --scenario topology --trials 2 --seed 2010
    python -m repro.scenarios --scenario 'baseline[wc]' 'baseline[rlnc]'
    python -m repro.scenarios --scenario all --trials 25 --workers 8 \
        --shards 4 --checkpoint-dir benchmarks/out/checkpoints --resume

``--scenario`` takes one or more names.  A name is a preset, a group
(``all``; ``topology`` and ``content``, each ``baseline`` plus the
graph-structured or catalogue presets; ``schemes``, every registered
scheme over ``baseline``) or ``<preset>[<scheme>]``, the preset under
another coding scheme with that scheme's default knobs.

Stdout is the aggregated JSON: one aggregate for a single scenario,
else an object keyed by scenario name.  It is deterministic for a
given (scenarios, trials, seed, scale): it contains no timestamps, host
details or worker counts, so ``--workers 1`` and ``--workers 8`` emit
identical bytes — the property the regression tests pin.  The same
holds across shard counts and interrupt/resume cycles: with
``--checkpoint-dir`` every finished shard is persisted atomically, and
``--resume`` replays the matching checkpoints, so a killed sweep picks
up from the last finished shard and still emits byte-identical JSON.
A comparison table of the scenarios goes to stderr.  Bad arguments
exit 2 with argparse's usage line; a ``--stop-after-shards`` stop
exits 3 with its shards checkpointed.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import SimulationError
from repro.experiments.scale import PROFILES, current_profile
from repro.obs import ObsSpec, render_progress
from repro.scenarios.aggregate import atomic_write_text, comparison_rows
from repro.scenarios.fleet import FleetRunner, FleetStop
from repro.scenarios.presets import (
    PRESETS,
    expand_scenarios,
    preset_names,
    scenario_groups,
)
from repro.schemes import available_schemes, get_scheme

#: Comparison-table columns: (metrics_summary key, short header).
COLUMNS = (
    ("rounds", "rounds"),
    ("average_completion_round", "avg_complete"),
    ("overhead", "overhead"),
    ("lost_transfers", "lost"),
    ("aborted", "aborted"),
    ("edge_served_fraction", "edge_served"),
    ("cache_hit_ratio", "cache_hit"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="Run Monte-Carlo trials of dissemination scenarios "
        "across worker processes and print the aggregated JSON.",
    )
    parser.add_argument(
        "--scenario",
        nargs="+",
        default=["baseline"],
        metavar="NAME",
        help="presets, groups ('all', 'topology', 'content', 'schemes') "
        "or '<preset>[<scheme>]' (see --list)",
    )
    parser.add_argument(
        "--trials", type=int, default=4, help="Monte-Carlo repetitions"
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes"
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument(
        "--scale",
        default=None,
        help=f"scale profile, one of {', '.join(sorted(PROFILES))} "
        "(default: LTNC_SCALE env, else 'default')",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="also write the JSON to this path",
    )
    parser.add_argument(
        "--list",
        action="store_true",
        help="list scenario presets and groups and exit",
    )
    parser.add_argument(
        "--schemes",
        action="store_true",
        help="list registered coding schemes (capabilities, knobs) and exit",
    )
    fleet = parser.add_argument_group("fleet (sharding, checkpoints)")
    fleet.add_argument(
        "--shards",
        type=int,
        default=None,
        help="shards per scenario (default: auto; shards are the unit "
        "of checkpointing)",
    )
    fleet.add_argument(
        "--checkpoint-dir",
        default=None,
        help="persist every finished shard here (atomic JSON); an "
        "interrupted sweep resumes from the last finished shard",
    )
    fleet.add_argument(
        "--resume",
        action="store_true",
        help="replay matching checkpoints from --checkpoint-dir "
        "instead of recomputing them",
    )
    fleet.add_argument(
        "--stop-after-shards",
        type=int,
        default=None,
        metavar="N",
        help="checkpoint N shards then exit with status 3 "
        "(deterministic-interruption hook for smoke tests)",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace-dir",
        default=None,
        metavar="DIR",
        help="write one JSONL trace file per trial here "
        "(see python -m repro.experiments.tracestats)",
    )
    obs.add_argument(
        "--trace-detail",
        choices=("round", "session"),
        default=None,
        help="trace granularity (default: round; requires --trace-dir)",
    )
    obs.add_argument(
        "--trace-compress",
        action="store_true",
        help="gzip the trace files (.jsonl.gz; requires --trace-dir)",
    )
    obs.add_argument(
        "--telemetry-dir",
        default=None,
        metavar="DIR",
        help="collect mergeable in-worker telemetry and write the "
        "fleet-wide telemetry.json here "
        "(worker/shard/resume-invariant; ltnc-telemetry v1)",
    )
    obs.add_argument(
        "--progress",
        action="store_true",
        help="print one live progress line per finished shard to stderr",
    )
    return parser


def _validate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Reject out-of-range or inconsistent flags with a parser error."""
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    if args.trials < 1:
        parser.error(f"--trials must be >= 1, got {args.trials}")
    if args.shards is not None and args.shards < 1:
        parser.error(f"--shards must be >= 1, got {args.shards}")
    if args.stop_after_shards is not None and args.stop_after_shards < 1:
        parser.error(
            f"--stop-after-shards must be >= 1, got {args.stop_after_shards}"
        )
    if args.resume and args.checkpoint_dir is None:
        parser.error("--resume requires --checkpoint-dir")
    if args.stop_after_shards is not None and args.checkpoint_dir is None:
        parser.error("--stop-after-shards requires --checkpoint-dir")
    if args.trace_detail is not None and args.trace_dir is None:
        parser.error("--trace-detail requires --trace-dir")
    if args.trace_compress and args.trace_dir is None:
        parser.error("--trace-compress requires --trace-dir")


def _profile(parser: argparse.ArgumentParser, scale: str | None):
    """The scale profile for ``--scale``, else the ``LTNC_SCALE`` env."""
    if scale is None:
        try:
            return current_profile()
        except KeyError as exc:
            parser.error(str(exc.args[0]))
    if scale not in PROFILES:
        parser.error(
            f"unknown scale {scale!r}; "
            f"expected one of: {', '.join(sorted(PROFILES))}"
        )
    return PROFILES[scale]


def _print_table(header: list[str], rows: list[list[str]]) -> None:
    """Right-aligned comparison table on stderr."""
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows))
        for i in range(len(header))
    ]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    for line in [header, *rows]:
        print(fmt.format(*line), file=sys.stderr)


def _list_catalogue() -> None:
    for name in preset_names():
        lines = (PRESETS[name].__doc__ or "").strip().splitlines()
        summary = lines[0] if lines else ""
        print(f"{name:20s} {summary}" if summary else name)
    for name, members in scenario_groups().items():
        print(f"{name:20s} group: {' '.join(members)}")


def _list_schemes() -> None:
    for name in available_schemes():
        scheme = get_scheme(name)
        caps = ", ".join(scheme.capabilities()) or "-"
        knobs = ", ".join(scheme.knob_names) or "-"
        print(f"{name:12s} {scheme.summary}")
        print(f"{'':12s} capabilities: {caps}")
        print(f"{'':12s} knobs: {knobs}")


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        _list_catalogue()
        return 0
    if args.schemes:
        _list_schemes()
        return 0
    _validate(parser, args)
    profile = _profile(parser, args.scale)
    try:
        scenarios = expand_scenarios(args.scenario, profile)
    except SimulationError as exc:
        parser.error(str(exc))
    if args.trace_dir is not None:
        # Host-local plumbing: ScenarioSpec.to_dict() excludes obs, so
        # traced and untraced runs emit byte-identical JSON.
        obs = ObsSpec(
            trace_dir=args.trace_dir,
            detail=args.trace_detail or "round",
            compress=args.trace_compress,
        )
        scenarios = [s.with_(obs=obs) for s in scenarios]
    runner = FleetRunner(
        n_workers=args.workers,
        n_shards=args.shards,
        checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        stop_after_shards=args.stop_after_shards,
        progress=(
            (lambda beat: print(render_progress(beat), file=sys.stderr))
            if args.progress
            else None
        ),
        telemetry_dir=args.telemetry_dir,
    )
    try:
        aggregates = runner.run_grid(scenarios, args.trials, args.seed)
    except FleetStop as stop:
        print(
            f"fleet {stop}; finished shards are checkpointed under "
            f"{args.checkpoint_dir} — rerun with --resume to continue",
            file=sys.stderr,
        )
        return 3
    _print_table(*comparison_rows(aggregates, COLUMNS))
    if len(aggregates) == 1:
        payload = next(iter(aggregates.values())).to_dict()
    else:
        payload = {name: a.to_dict() for name, a in aggregates.items()}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if args.out:
        out = atomic_write_text(args.out, text + "\n")
        print(f"wrote {out}", file=sys.stderr)
    print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
