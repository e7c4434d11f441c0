"""The repository benchmark: one workload, one seed, one run.

Run from the root of a checkout::

    python3 ltncbench/run.py --workload ltnc_baseline --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``layers.json``): ``ltnc_baseline``,
``ltnc_overlay_1k`` and ``fleet_sweep``.  Every trial's output is
checked (``checks.py``); the last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` times the workload untraced for ``--seconds`` and reports
the end-to-end metrics named in ``BENCHMARK.json``; the report above the
JSON line also prints ``failed_trial_frac``, which is the JSON line's
``failed / attempted``.  ``--trace 1`` runs the workload's fixed traced
prefix untraced, traced (``tracer.py``, in-process) and under
``ObsSpec(profile=True)``, alternating the passes trial by trial (the
fleet: scenario by scenario), requires byte-identical results from all
of them, and reports the per-layer metrics.

Each run writes a record (host fingerprint, load average before and
after, the benchmark's own wall time, exact work counts, every metric,
per-trial outcomes, and for ``--trace 1`` the span table) under
``--out`` (default ``ltncbench/out``).  Work counts are also kept per
(workload, size, seed, trace mode, source digest); a later run of the
same seed whose counts differ is reported incorrect.  ``runset.py`` repeats runs
over seeds and summarises their spread.  ``--size tiny`` shrinks every
workload for the self-test (``test_bench.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--workload",
        required=True,
        choices=[w["name"] for w in DECLARED["workloads"]],
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", type=pathlib.Path, default=BENCH_DIR / "out")
    ap.add_argument("--record", type=pathlib.Path,
                    help="write the run record here (default: under --out)")
    return ap.parse_args(argv)


def host_fingerprint() -> dict[str, object]:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def source_digest() -> str:
    """SHA-256 over the program and benchmark sources (keys work counts)."""
    h = hashlib.sha256()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for child."""
    kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kb / 1024.0


def end_to_end(sh, seed: int, seconds: float, workdir: pathlib.Path):
    """The untraced timed section; returns (metrics, trials, counts, info)."""
    import workloads as wl
    from checks import work_counts

    setup = wl.setup_times(sh, seed)
    if sh.fleet:
        p = wl.run_fleet(sh, seed, seconds, workdir)
    else:
        p = wl.run_serial(sh, seed, seconds, sh.min_units)
        setup += p.build_s
    metrics = {
        "trials_per_s": len(p.trials) / p.wall_s,
        "sessions_per_s": sum(t.summary()["sessions"] for t in p.trials) / p.wall_s,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_mb(),
        **wl.protocol_metrics(p),
    }
    info = {"timed_wall_s": p.wall_s, "setup_samples": len(setup)}
    return metrics, p.trials, work_counts(t.outcome for t in p.prefix), info


def _pct(values, scale: float, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def layer_metrics(tr, extra: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics from one traced pass plus pass-level timings.

    Besides the derived metrics below, a declared ``<span>.calls`` or
    ``<span>.s`` reads that span's row of the trace table (zero when the
    layer never ran), and ``ops.<side>.<op>`` sums the results' exact
    ``OpCounter`` totals.
    """
    table = tr.table()
    empty = {"calls": 0, "s": 0.0}
    results = [result for _, result in tr.runs]
    epidemic = [r for r in results if hasattr(r, "recode_ops")]
    catalogue = [r for r in results if hasattr(r, "cache_served")]

    def total(attr, rs=results):
        return sum(getattr(r, attr) for r in rs)

    def ratio(num, den):
        return num / den if den else 0.0

    gaps = tr.round_gaps()
    m = {
        "gossip.rounds": total("rounds"),
        "gossip.round_ms_p50": _pct(gaps, 1e3, 50),
        "gossip.round_ms_p99": _pct(gaps, 1e3, 99),
        "gossip.self_s": table.get("gossip.run", {"self_s": 0.0})["self_s"],
        "gossip.abort_ratio": ratio(total("aborted"), total("sessions")),
        "gossip.useful_ratio": ratio(
            total("useful_transfers"), total("data_transfers")
        ),
        "channel.lost_ratio": ratio(
            total("lost_transfers"), total("data_transfers")
        ),
        "core.make_packet.us_p50": _pct(tr.durations("core.make_packet"), 1e6, 50),
        "core.make_packet.us_p99": _pct(tr.durations("core.make_packet"), 1e6, 99),
        "core.receive.us_p50": _pct(tr.durations("core.receive"), 1e6, 50),
        "costmodel.add_calls": tr.count("costmodel.add"),
        "content.cache_hit_ratio": ratio(
            total("cache_served", catalogue), total("data_transfers", catalogue)
        ),
        **extra,
    }
    for metric in DECLARED["per_layer"]:
        name = metric["name"]
        if name in m:
            continue
        if name.startswith("ops."):
            _, side, op = name.split(".")
            m[name] = sum(getattr(r, f"{side}_ops").get(op) for r in epidemic)
        else:
            span, _, field = name.rpartition(".")
            m[name] = table.get(span, empty)[field]
    return m


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    value = fn(*args, **kwargs)
    return value, time.perf_counter() - t0


def _overhead_pct(slow: float, base: float) -> float:
    return 100.0 * (slow / base - 1.0)


def _profiled(specs):
    from repro.obs.spec import ObsSpec

    return tuple(s.with_(obs=ObsSpec(profile=True)) for s in specs)


class _PoolCounter:
    """Counts worker pools ``parallel_map`` starts inside ``with`` blocks."""

    def __init__(self) -> None:
        self.pools = 0

    def __enter__(self):
        import repro.scenarios.runner as runner

        self._runner = runner
        self._original = base = runner.ProcessPoolExecutor
        counter = self

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                counter.pools += 1
                super().__init__(*args, **kwargs)

        runner.ProcessPoolExecutor = CountingPool
        return self

    def __exit__(self, *exc) -> None:
        self._runner.ProcessPoolExecutor = self._original


def traced_serial(sh, seed: int, tr):
    """Untraced, traced and profiled runs of the serial trial prefix.

    The three passes alternate trial by trial, so a drift in host speed
    touches each of them alike.
    """
    import workloads as wl
    from checks import canonical

    wl.setup_times(sh, seed)  # warm-up, as before the timed section
    passes: dict[str, list] = {"untraced": [], "traced": [], "profiled": []}
    for i in range(sh.trace_units):
        passes["untraced"].append(wl.run_serial(sh, seed, 0.0, 1, first=i))
        with tr.installed():
            passes["traced"].append(wl.run_serial(sh, seed, 0.0, 1, first=i))
        passes["profiled"].append(
            wl.run_serial(sh, seed, 0.0, 1, specs=_profiled(sh.specs), first=i)
        )
    walls = {f"{k}_s": sum(p.wall_s for p in v) for k, v in passes.items()}
    dumps = [
        [canonical(t.outcome) for p in v for t in p.trials]
        for v in passes.values()
    ]
    identical = dumps[0] == dumps[1] == dumps[2]
    trials = [t for v in passes.values() for p in v for t in p.trials]
    extra = {
        "fleet.parallel_efficiency": 0.0,
        "fleet.pools": 0,
        "obs.trace_overhead_pct": _overhead_pct(
            walls["traced_s"], walls["untraced_s"]
        ),
        "obs.profiler_overhead_pct": _overhead_pct(
            walls["profiled_s"], walls["untraced_s"]
        ),
    }
    return trials, identical, extra, walls


def traced_fleet(sh, seed: int, tr, workdir: pathlib.Path):
    """The first fleet batch four ways, one scenario at a time.

    Per scenario: (a) 2-worker checkpointed ``run_grid`` as in the timed
    section, (b) the same in-process (``n_workers=1``, same shards),
    (c) (b) traced, (d) (a) under ``ObsSpec(profile=True)``; worker pools
    are counted in (a).  Alternating per scenario keeps a drift in host speed
    out of the ratios; each scenario's aggregate is independent of the
    rest of the grid, so the four aggregate JSONs must be byte-identical
    to each other.
    """
    import workloads as wl
    from checks import check_result

    master = wl.trial_seed(sh.name, seed, 0)
    wl.setup_times(sh, seed)
    aggs = {"fleet": {}, "serial": {}, "traced": {}, "profiled": {}}
    walls = dict.fromkeys(aggs, 0.0)

    def one(label, spec, n_workers, n_shards=None):
        (result, ckpt), wall = _timed(
            wl.fleet_batch, sh, master, workdir, n_workers,
            specs=(spec,), n_shards=n_shards,
        )
        aggs[label].update(result)
        walls[label] += wall
        return ckpt

    pools = _PoolCounter()
    for spec in sh.specs:
        with pools:
            ckpt = one("fleet", spec, sh.n_workers)
        shards = len(list(ckpt.glob("shard-*.json")))
        one("serial", spec, 1, shards)
        with tr.installed():
            one("traced", spec, 1, shards)
        one("profiled", _profiled((spec,))[0], sh.n_workers)
    with tr.installed():  # serialising the aggregates is fleet work too
        traced_json = wl.aggregate_json(aggs["traced"])
    identical = all(
        wl.aggregate_json(aggs[label]) == traced_json
        for label in ("fleet", "serial", "profiled")
    )
    trials = wl.fleet_trials(sh, aggs["fleet"]) + wl.fleet_trials(sh, aggs["profiled"])
    traced_failures = [
        check_result(result, max_rounds) for max_rounds, result in tr.runs
    ]
    extra = {
        "fleet.parallel_efficiency": walls["serial"] / (sh.n_workers * walls["fleet"]),
        "fleet.pools": pools.pools,
        "obs.trace_overhead_pct": _overhead_pct(walls["traced"], walls["serial"]),
        "obs.profiler_overhead_pct": _overhead_pct(walls["profiled"], walls["fleet"]),
    }
    walls["n_shards"] = shards
    return trials, traced_failures, identical, extra, walls


def _check_counts(path: pathlib.Path, counts: dict[str, int]) -> list[str]:
    """Compare with counts an earlier run of this seed stored; store ours."""
    if path.exists():
        earlier = json.loads(path.read_text())
        return [
            f"work count {key}: {earlier[key]} earlier, {counts[key]} now"
            for key in sorted(set(earlier) & set(counts))
            if earlier[key] != counts[key]
        ]
    _write_atomic(path, json.dumps(counts, sort_keys=True, indent=1) + "\n")
    return []


def _write_atomic(path: pathlib.Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"ltncbench: no program source under {ROOT / 'src'}; run from "
            "the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as wl
    from checks import tally, work_counts
    from tracer import SpanTracer

    load_before = os.getloadavg()[0]
    sh = wl.SHAPES[(args.workload, args.size)]
    out = args.out.resolve()
    (out / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=out / "tmp"))
    record: dict[str, object] = {}
    try:
        if args.trace == 0:
            metrics, trials, counts, info = end_to_end(
                sh, args.seed, args.seconds, workdir
            )
            failures = [t.violations for t in trials]
            identical = True
            declared_metrics = DECLARED["end_to_end"]
            record["timing"] = info
        else:
            tr = SpanTracer()
            if sh.fleet:
                trials, traced_fail, identical, extra, walls = traced_fleet(
                    sh, args.seed, tr, workdir
                )
                failures = [t.violations for t in trials] + traced_fail
            else:
                trials, identical, extra, walls = traced_serial(sh, args.seed, tr)
                failures = [t.violations for t in trials]
            counts = work_counts(result for _, result in tr.runs)
            metrics = layer_metrics(tr, extra)
            declared_metrics = DECLARED["per_layer"]
            spans = out / "spans" / f"{args.workload}-{args.size}-s{args.seed}.npz"
            spans.parent.mkdir(parents=True, exist_ok=True)
            tr.save(spans)
            record.update(timing=walls, spans=str(spans.relative_to(out)),
                          ladder=tr.table(), root_spans_s=tr.root_seconds())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed, notes = tally(failures)
    if not identical:
        notes.append("traced/profiled results differ from the untraced pass")
    digest = source_digest()
    counts_file = out / "counts" / (
        f"{args.workload}-{args.size}-s{args.seed}-t{args.trace}-{digest[:16]}.json"
    )
    count_notes = _check_counts(counts_file, counts)
    notes += count_notes
    correct = failed == 0 and identical and not count_notes
    metrics["failed_trial_frac"] = failed / attempted
    units = {m["name"]: m["unit"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]}
    units["failed_trial_frac"] = "ratio"

    print(
        f"ltncbench {args.workload} size={args.size} seed={args.seed} "
        f"trace={args.trace}: {attempted} trials checked, {failed} failed"
    )
    for name in [m["name"] for m in declared_metrics] + (
        ["failed_trial_frac"] if args.trace == 0 else []
    ):
        print(f"  {name:<32} {metrics[name]:>16.6g} {units[name]}")
    for note in notes:
        print(f"  ! {note}")

    record.update(
        workload=args.workload, seed=args.seed, size=args.size,
        trace=args.trace, seconds=args.seconds, host=host_fingerprint(),
        load1_before=load_before, load1_after=os.getloadavg()[0],
        bench_wall_s=time.perf_counter() - started, source_digest=digest,
        correct=correct, attempted=attempted, failed=failed, notes=notes,
        counts=counts, metrics=metrics,
        trials=[t.summary() for t in trials],
    )
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    _write_atomic(
        args.record
        or out / "runs" / f"{args.workload}-{args.size}-s{args.seed}"
        f"-t{args.trace}-{stamp}-{os.getpid()}.json",
        json.dumps(record, sort_keys=True, indent=1) + "\n",
    )
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared_metrics
        },
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
