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

The int kernel's speedup floor lives here, not in the report: the
test times the numpy-words oracle (``tests/gf2_oracles.py``) in the
same process on the first 120 of the insert/reduce row's 300 vectors
and requires >= 3x at k = 64 and 128.

Deliberately time-boxed: quick-profile workloads and a subset of ks,
so tier-1 wall time doesn't grow with the perf suite.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from repro.experiments.perfbench import KERNEL_KS, run_perfbench, validate_bench
from repro.rng import make_rng

from gf2_oracles import ReferenceBitVector, ReferenceRref

OUT_DIR = pathlib.Path(__file__).resolve().parent.parent / "out"

SEED = 2026
#: The oracle replays the first 120 of the quick profile's 300
#: insert/reduce vectors per k.
ORACLE_VECTORS = 120


def oracle_ops_per_sec(k: int, n_vectors: int, seed: int) -> float:
    """``bench_rref_insert_reduce``'s loop, run on the numpy-words oracle.

    The vectors are the first *n_vectors* rows of the stream the
    perfbench row draws for the same *k* and *seed*.
    """
    dense = make_rng(seed).random((n_vectors, k)) < 0.3
    vectors = [
        ReferenceBitVector.from_indices(k, np.flatnonzero(row))
        for row in dense
    ]
    t0 = time.perf_counter()
    rref = ReferenceRref(k)
    for v in vectors:
        rref.is_innovative(v)
        rref.insert(v)
        if rref.is_full_rank():
            rref = ReferenceRref(k)
    return round(n_vectors / (time.perf_counter() - t0), 1)


def test_perfbench_quick_profile_completes_and_validates():
    report = run_perfbench(profile="quick", seed=SEED)
    validate_bench(report)  # raises on any missing/non-positive series

    micro = report["microbench"]
    assert set(micro["rref_insert_reduce"]) == {f"k={k}" for k in KERNEL_KS}
    rows = micro["rref_insert_reduce"]
    baseline = {
        k: oracle_ops_per_sec(k, ORACLE_VECTORS, SEED) for k in KERNEL_KS
    }
    speedup = {
        k: round(rows[f"k={k}"]["ops_per_sec"] / baseline[k], 2)
        for k in KERNEL_KS
    }
    # The tentpole claim, enforced at the smallest credible scale: the
    # int kernel beats the numpy reference by >= 3x on insert/reduce.
    for k in (64, 128):
        assert speedup[k] >= 3.0, (k, rows[f"k={k}"], baseline[k])

    lines = [
        "experiment: perf_kernel (quick profile)",
        "IncrementalRref insert/reduce, int kernel vs numpy reference",
        "",
        f"{'k':>5}  {'ops/sec':>12}  {'baseline':>12}  {'speedup':>8}",
    ]
    for k in KERNEL_KS:
        lines.append(
            f"{k:>5}  {rows[f'k={k}']['ops_per_sec']:>12,.0f}  "
            f"{baseline[k]:>12,.0f}  "
            f"{speedup[k]:>7.1f}x"
        )
    lines.append("")
    lines.append("end-to-end rounds/sec (quick scenario):")
    for scheme, entry in report["end_to_end"].items():
        lines.append(f"  {scheme:<12} {entry['rounds_per_sec']:>10,.1f}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "perf_kernel.txt").write_text("\n".join(lines) + "\n")
    print()
    print("\n".join(lines))
