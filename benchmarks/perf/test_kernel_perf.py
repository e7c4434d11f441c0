"""PERF — kernel + hot-loop throughput tracking (BENCH_ltnc.json).

Unlike the figure benches (which pin *simulated* quantities against the
paper), this suite tracks the implementation's own speed: it runs the
``repro.experiments.perfbench`` quick profile, validates the report
schema, and prints a human-readable summary, also written to
``benchmarks/out/perf_kernel.txt``.  That file holds host timings, so
it is git-ignored rather than checked in.  The checked-in repo-root
``BENCH_ltnc.json`` is the full-profile artifact — regenerate it with
``PYTHONPATH=src python -m repro.experiments.perfbench`` when the
kernel changes.

Deliberately time-boxed: quick-profile workloads and a subset of ks,
so tier-1 wall time doesn't grow with the perf suite.
"""

from __future__ import annotations

import pathlib

from repro.experiments.perfbench import (
    KERNEL_KS,
    bench_rref_insert_reduce,
    run_perfbench,
    validate_bench,
)

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "out"


def test_perfbench_quick_profile_completes_and_validates():
    report = run_perfbench(profile="quick", seed=2026)
    validate_bench(report)  # raises on any missing/non-positive series

    micro = report["microbench"]
    assert set(micro["rref_insert_reduce"]) == {f"k={k}" for k in KERNEL_KS}
    # The tentpole claim, enforced at the smallest credible scale: the
    # int kernel beats the numpy reference by >= 3x on insert/reduce.
    for k in (64, 128):
        entry = micro["rref_insert_reduce"][f"k={k}"]
        assert entry["speedup_vs_baseline"] >= 3.0, entry

    lines = [
        "experiment: perf_kernel (quick profile)",
        "IncrementalRref insert/reduce, int kernel vs numpy reference",
        "",
        f"{'k':>5}  {'ops/sec':>12}  {'baseline':>12}  {'speedup':>8}",
    ]
    for k in KERNEL_KS:
        entry = micro["rref_insert_reduce"][f"k={k}"]
        lines.append(
            f"{k:>5}  {entry['ops_per_sec']:>12,.0f}  "
            f"{entry['baseline_ops_per_sec']:>12,.0f}  "
            f"{entry['speedup_vs_baseline']:>7.1f}x"
        )
    lines.append("")
    lines.append("end-to-end rounds/sec (quick scenario):")
    for scheme, entry in report["end_to_end"].items():
        lines.append(f"  {scheme:<12} {entry['rounds_per_sec']:>10,.1f}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "perf_kernel.txt").write_text("\n".join(lines) + "\n")
    print()
    print("\n".join(lines))


def test_reference_kernel_still_runs_headline_bench():
    # The baseline half of the headline number must stay runnable, or
    # the next PR's "speedup vs baseline" silently loses its meaning.
    entry = bench_rref_insert_reduce(64, 60, seed=3, kernel="reference")
    assert entry["n_ops"] == 60
    assert entry["ops_per_sec"] > 0
