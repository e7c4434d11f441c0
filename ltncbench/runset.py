"""Repeat benchmark runs over seeds and summarise them as one run set.

Run from the root of a checkout::

    python3 ltncbench/runset.py --seeds 1-10
    python3 ltncbench/runset.py --seeds 1-5 --workloads fleet_sweep --label probe
    python3 ltncbench/runset.py --seeds 1-10 --label second --compare ltncbench/out/runsets/first.json

Each (workload, seed) runs ``run.py`` once as a child process, one after
another.  The set is written to ``ltncbench/out/runsets/<label>.json``:
the host fingerprint, per workload the 1-minute load average before the
first and after the last run and the benchmark's own wall time, every
run's result line and record, and per metric the median, quartiles
(``statistics.quantiles(n=4)``) and spread ``(q3 - q1) / median`` next
to the metric's bound from ``BENCHMARK.json``.

Exit status 1 when a run fails or is incorrect, when two runs of one
seed report different work counts, when a spread other than
``setup_s``'s reaches its bound, or — with ``--compare`` — when a
median is worse than the other set's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(args, workload: str, seed: int, record: pathlib.Path) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--size", args.size,
        "--out", str(args.out), "--record", str(record),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "returncode": proc.returncode, "result": None}
    if proc.returncode == 0 and lines:
        run["result"] = json.loads(lines[-1])
        run["record"] = json.loads(record.read_text())
    else:
        run["stderr"] = proc.stderr[-2000:]
    return run


def spread_table(runs: list[dict], declared: list[dict]) -> dict[str, dict]:
    """Median, quartiles and relative spread of every declared metric."""
    table = {}
    for metric in declared:
        name = metric["name"]
        values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
        if len(values) < 2:
            continue
        q1, _, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        table[name] = {
            "unit": metric["unit"],
            "n": len(values),
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "bound": metric.get("bound"),
        }
    return table


def count_mismatches(runs: list[dict]) -> list[str]:
    """Work counts that differ between runs of one seed."""
    seen: dict[int, dict[str, int]] = {}
    problems = []
    for run in runs:
        if not run["result"]:
            continue
        counts = run["record"]["counts"]
        earlier = seen.setdefault(run["seed"], counts)
        problems += [
            f"seed {run['seed']}: {key} {earlier[key]} vs {counts[key]}"
            for key in sorted(set(earlier) & set(counts))
            if earlier[key] != counts[key]
        ]
    return problems


def compare(summary: dict, other: dict, declared: dict[str, dict]) -> list[str]:
    """Medians worse than *other*'s by more than their bound."""
    problems = []
    for workload, section in summary["workloads"].items():
        before = other["workloads"].get(workload, {}).get("metrics", {})
        for name, row in section["metrics"].items():
            metric = declared.get(name)
            if name not in before or not metric or "bound" not in metric:
                continue
            old, new = before[name]["median"], row["median"]
            worse = (new - old) / old
            if metric["better"] == "higher":
                worse = -worse
            row["vs_other"] = worse
            if worse > metric["bound"]:
                problems.append(
                    f"{workload} {name}: median {new:.6g} is {100 * worse:.1f}% "
                    f"worse than {old:.6g} (bound {100 * metric['bound']:.0f}%)"
                )
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument(
        "--workloads", default=",".join(w["name"] for w in DECLARED["workloads"])
    )
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--label", default=time.strftime("%Y%m%dT%H%M%S", time.gmtime()))
    ap.add_argument("--out", type=pathlib.Path, default=BENCH_DIR / "out")
    ap.add_argument("--compare", type=pathlib.Path)
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = DECLARED["run_seconds"]
    args.out = args.out.resolve()
    metrics = DECLARED["end_to_end"] if args.trace == 0 else DECLARED["per_layer"]
    by_name = {m["name"]: m for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    records = args.out / "runsets" / f"{args.label}.records"
    records.mkdir(parents=True, exist_ok=True)

    summary: dict[str, object] = {"label": args.label, "seconds": args.seconds,
                                  "trace": args.trace, "size": args.size,
                                  "workloads": {}}
    problems: list[str] = []
    for workload in args.workloads.split(","):
        load_before = os.getloadavg()[0]
        started = time.perf_counter()
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_one(args, workload, seed, records / f"{workload}-s{seed}.json")
            runs.append(run)
            result = run["result"]
            status = "ok" if result and result["correct"] else "FAILED"
            print(f"{workload} seed {seed}: {status}", flush=True)
            if status != "ok":
                problems.append(f"{workload} seed {seed}: run failed or incorrect")
        table = spread_table(runs, metrics)
        problems += [f"{workload} {p}" for p in count_mismatches(runs)]
        for name, row in table.items():
            if name != "setup_s" and row["bound"] is not None and row["spread"] >= row["bound"]:
                problems.append(
                    f"{workload} {name}: spread {100 * row['spread']:.1f}% >= "
                    f"bound {100 * row['bound']:.0f}%"
                )
        done = [r["result"] for r in runs if r["result"]]
        attempted = sum(r["attempted"] for r in done)
        summary["workloads"][workload] = {
            "failed_trial_frac": (
                sum(r["failed"] for r in done) / attempted if attempted else 1.0
            ),
            "load1_before": load_before,
            "load1_after": os.getloadavg()[0],
            "bench_wall_s": time.perf_counter() - started,
            "metrics": table,
            "runs": runs,
        }
        if runs and runs[0]["result"]:
            summary["host"] = runs[0]["record"]["host"]
    if args.compare:
        problems += compare(summary, json.loads(args.compare.read_text()), by_name)

    for workload, section in summary["workloads"].items():
        print(f"\n{workload}: {section['bench_wall_s']:.0f} s, load "
              f"{section['load1_before']:.2f} -> {section['load1_after']:.2f}")
        for name, row in section["metrics"].items():
            bound = row["bound"]
            flag = ""
            if bound is not None:
                flag = "ok" if row["spread"] < bound / 3 else (
                    "within bound" if row["spread"] < bound else "OVER BOUND")
            extra = f" vs other {100 * row['vs_other']:+.1f}%" if "vs_other" in row else ""
            value = f"{row['median']:.6g} {row['unit']}"
            print(f"  {name:<28} median {value:<20} spread "
                  f"{100 * row['spread']:6.2f}% {flag}{extra}")
        print(f"  {'failed_trial_frac':<28} {section['failed_trial_frac']:.6g} ratio")
    summary["problems"] = problems
    path = args.out / "runsets" / f"{args.label}.json"
    path.write_text(json.dumps(summary, sort_keys=True, indent=1) + "\n")
    print(f"\nrun set written to {path}")
    for p in problems:
        print(f"PROBLEM: {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
