"""Performance benchmark harness: the repo's perf trajectory tracker.

Every figure and scenario sweep in this reproduction bottoms out in the
GF(2) kernel (``repro.gf2``) and the per-round simulator loop, so this
module times exactly those layers and writes a machine-readable report
(``BENCH_ltnc.json`` at the repo root, checked in) that future PRs can
diff against:

* **kernel microbenches** — :class:`~repro.gf2.matrix.IncrementalRref`
  insert/reduce throughput, raw :class:`~repro.gf2.bitvec.BitVector`
  ops, and Gauss/BP decode throughput at k in {32, 64, 128, 256};
* **baseline comparison** — the same insert/reduce bench on the
  pre-optimization numpy kernel preserved in ``repro.gf2.reference``,
  so the recorded speedup is measured on the *same machine* in the
  *same run* rather than read off a stale note;
* **end-to-end rounds/sec** — one seeded
  :class:`~repro.gossip.simulator.EpidemicSimulator` run per built-in
  scheme;
* **fleet throughput** — a seed-pinned baseline trial grid through the
  sharded :class:`~repro.scenarios.fleet.FleetRunner` (chunked
  dispatch over a worker pool), reported as trials/sec — the number a
  25-repetition, N = 1,000 paper-scale sweep divides by;
* **phase breakdown** — the same end-to-end run per scheme under the
  :class:`~repro.obs.PhaseProfiler`, splitting wall time into
  sampling / channel / encode / decode / refine so an optimisation PR
  can show *which* phase it moved, not just the aggregate rate.

All workloads are seed-pinned, so the *work* is identical run to run
and only wall-clock throughput varies with the host.  Run it with::

    PYTHONPATH=src python -m repro.experiments.perfbench           # full
    PYTHONPATH=src python -m repro.experiments.perfbench --quick   # CI smoke

CI runs the quick profile, validates the schema with
:func:`validate_bench` and uploads the JSON as a workflow artifact.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import sys
import tempfile
import time
from typing import Callable, Sequence

import numpy as np

from repro.gf2.bitvec import BitVector
from repro.gf2.matrix import IncrementalRref
from repro.gf2.reference import ReferenceBitVector, ReferenceRref
from repro.rng import make_rng

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_SEED",
    "KERNEL_KS",
    "bench_rref_insert_reduce",
    "bench_kernel_batch",
    "bench_fleet",
    "bench_bitvector_ops",
    "bench_decode",
    "bench_end_to_end",
    "bench_n_scaling",
    "bench_phases",
    "run_perfbench",
    "validate_bench",
    "main",
]

#: v2 added the ``fleet`` section (sharded trial-grid throughput);
#: v3 added the ``phases`` section (per-phase wall time through
#: :class:`~repro.obs.PhaseProfiler`); v4 added ``fleet.telemetry``
#: (the in-worker mergeable counters of the fleet workload, via
#: :mod:`repro.obs.metrics`); v5 added ``n_scaling`` (scalar-vs-batched
#: round throughput per overlay size, up to N = 10,000),
#: ``microbench.kernel_batch`` (numpy multi-row RREF vs the int kernel
#: at paper-scale k) and the ``ltnc_batched`` phase breakdown; v6 drops
#: the scalar round loop's leg — ``n_scaling`` rows lose ``scalar`` and
#: ``speedup_batched_vs_scalar`` (the one remaining loop keeps its
#: ``batched`` key, so v5 and v6 rows align) and ``phases.ltnc_batched``
#: goes, ``phases.ltnc`` now timing the same loop.
SCHEMA_VERSION = 6
DEFAULT_SEED = 2026
KERNEL_KS: tuple[int, ...] = (32, 64, 128, 256)
DEFAULT_OUT = "BENCH_ltnc.json"

#: Workload sizes per profile: (rref vectors, bitvec ops, decode
#: batches, end-to-end n_nodes, end-to-end k, fleet grid shape).
_PROFILES = {
    "full": {
        "rref_vectors": 2000,
        "baseline_vectors": 600,
        "bitvec_ops": 100_000,
        "decode_batches": 20,
        "e2e_nodes": 32,
        "e2e_k": 128,
        "fleet_trials": 100,
        "fleet_nodes": 16,
        "fleet_k": 32,
        "fleet_shards": 4,
        # (n_nodes, round cap or None for run-to-completion); the
        # N = 10,000 row is round-capped, and the separate completion
        # row (below) runs that overlay to the end.
        "n_scaling": ((128, None), (1024, None), (10_000, 80)),
        "n_scaling_k": 32,
        "n_scaling_completion": 10_000,
        "kernel_batch_ks": (512, 1024, 2048),
    },
    "quick": {
        "rref_vectors": 300,
        "baseline_vectors": 120,
        "bitvec_ops": 10_000,
        "decode_batches": 3,
        "e2e_nodes": 10,
        "e2e_k": 24,
        "fleet_trials": 12,
        "fleet_nodes": 8,
        "fleet_k": 16,
        "fleet_shards": 3,
        # Tight round caps keep the CI smoke in seconds while still
        # driving the round loop at the full N = 10,000 overlay.
        "n_scaling": ((128, 24), (1024, 8), (10_000, 3)),
        "n_scaling_k": 32,
        "n_scaling_completion": None,
        "kernel_batch_ks": (256, 512),
    },
}


def _timed(fn: Callable[[], int]) -> tuple[int, float]:
    """Run *fn* once; return (ops it reports, wall seconds)."""
    t0 = time.perf_counter()
    n_ops = fn()
    return n_ops, time.perf_counter() - t0


# ----------------------------------------------------------------------
# Kernel microbenches
# ----------------------------------------------------------------------
def bench_rref_insert_reduce(
    k: int, n_vectors: int, seed: int, kernel: str = "fast"
) -> dict[str, float]:
    """Insert/reduce throughput of the incremental Gauss basis.

    Each step runs one innovation check (a full :meth:`reduce`) plus
    one :meth:`insert`; the basis is restarted whenever it reaches full
    rank, so steady-state work per op is representative of a node
    mid-dissemination.  ``kernel="reference"`` times the pre-PR numpy
    implementation on the identical vector stream.
    """
    rng = make_rng(seed)
    dense = rng.random((n_vectors, k)) < 0.3
    if kernel == "fast":
        vectors: list = [BitVector.from_bits(row) for row in dense]
        make = lambda: IncrementalRref(k)  # noqa: E731
    elif kernel == "reference":
        vectors = [
            ReferenceBitVector.from_indices(k, np.flatnonzero(row))
            for row in dense
        ]
        make = lambda: ReferenceRref(k)  # noqa: E731
    else:  # pragma: no cover - caller bug
        raise ValueError(f"unknown kernel {kernel!r}")

    def work() -> int:
        rref = make()
        for v in vectors:
            rref.is_innovative(v)
            rref.insert(v)
            if rref.is_full_rank():
                rref = make()
        return n_vectors

    n_ops, seconds = _timed(work)
    return {
        "k": k,
        "n_ops": n_ops,
        "seconds": round(seconds, 6),
        "ops_per_sec": round(n_ops / seconds, 1),
    }


def bench_kernel_batch(k: int, seed: int) -> dict[str, float]:
    """Numpy multi-row RREF vs the int kernel at one code length.

    Feeds the identical dense random row stream (``k + 16`` rows, one
    full-rank fill — the RLNC decode shape) through
    :class:`~repro.gf2.matrix.IncrementalRref` and
    :class:`~repro.gf2.batch.BatchRref`, plus the block
    :meth:`~repro.gf2.batch.BatchRref.batch_insert` entry point on a
    pre-packed word matrix.  The kernels are result- and
    charge-identical (pinned by ``tests/test_gf2_batch.py``), so the
    rows differ only in wall clock — the basis for the
    :func:`~repro.gf2.batch.make_rref` selection heuristic.
    """
    from repro.gf2.batch import BatchRref

    rng = make_rng(seed)
    nwords = (k + 63) >> 6
    n_rows = k + 16
    words = rng.integers(0, 2**64, size=(n_rows, nwords), dtype=np.uint64)
    if k & 63:
        words[:, -1] &= np.uint64((1 << (k & 63)) - 1)
    # Guard against an all-zero tail row on tiny k (keeps ranks equal).
    vectors = [
        BitVector._from_int(k, int.from_bytes(row.tobytes(), "little"))
        for row in words
    ]

    def run_int() -> int:
        rref = IncrementalRref(k)
        for v in vectors:
            rref.insert(v)
        return n_rows

    def run_numpy() -> int:
        rref = BatchRref(k)
        for v in vectors:
            rref.insert(v)
        return n_rows

    def run_block() -> int:
        BatchRref(k).batch_insert(words)
        return n_rows

    i_ops, i_secs = _timed(run_int)
    n_ops, n_secs = _timed(run_numpy)
    b_ops, b_secs = _timed(run_block)
    return {
        "k": k,
        "n_rows": n_rows,
        "int_ops_per_sec": round(i_ops / i_secs, 1),
        "numpy_ops_per_sec": round(n_ops / n_secs, 1),
        "block_ops_per_sec": round(b_ops / b_secs, 1),
        "speedup_numpy_vs_int": round(i_secs / n_secs, 2),
    }


def bench_bitvector_ops(k: int, n_ops: int, seed: int) -> dict[str, float]:
    """Raw vector-op rates: ixor / first_index / indices / weight."""
    rng = make_rng(seed)
    a = BitVector.random(k, rng, density=0.4)
    b = BitVector.random(k, rng, density=0.4)
    out: dict[str, float] = {"k": k, "n_ops": n_ops}

    def rate(fn: Callable[[], object]) -> float:
        t0 = time.perf_counter()
        for _ in range(n_ops):
            fn()
        return round(n_ops / (time.perf_counter() - t0), 1)

    out["ixor_per_sec"] = rate(lambda: a.ixor(b))
    out["first_index_per_sec"] = rate(a.first_index)
    out["weight_per_sec"] = rate(a.weight)
    out["indices_per_sec"] = rate(a.indices_list)
    return out


def bench_decode(k: int, n_batches: int, seed: int) -> dict[str, float]:
    """Decode throughput: Gauss (payload RREF) and LT belief propagation.

    Gauss: feed random dense vectors with payloads until full rank,
    then :meth:`decode`.  BP: feed Robust-Soliton LT packets until the
    peeling decoder completes.  Both report packets consumed per
    second, the unit the dissemination loop cares about.
    """
    from repro.lt.decoder import BeliefPropagationDecoder
    from repro.lt.distributions import RobustSoliton
    from repro.lt.encoder import LTEncoder

    m = 32
    rng = make_rng(seed)

    def gauss() -> int:
        fed = 0
        for _ in range(n_batches):
            rref = IncrementalRref(k, payload_nbytes=m)
            while not rref.is_full_rank():
                bits = rng.random(k) < 0.5
                payload = rng.integers(0, 256, size=m, dtype=np.uint8)
                rref.insert(BitVector.from_bits(bits), payload)
                fed += 1
            rref.decode()
        return fed

    def bp() -> int:
        fed = 0
        for batch in range(n_batches):
            encoder = LTEncoder(
                k, RobustSoliton(k), rng=make_rng(seed + batch)
            )
            decoder = BeliefPropagationDecoder(k)
            while not decoder.is_complete():
                decoder.receive(encoder.next_packet())
                fed += 1
        return fed

    g_ops, g_secs = _timed(gauss)
    b_ops, b_secs = _timed(bp)
    return {
        "k": k,
        "gauss_packets": g_ops,
        "gauss_packets_per_sec": round(g_ops / g_secs, 1),
        "bp_packets": b_ops,
        "bp_packets_per_sec": round(b_ops / b_secs, 1),
    }


# ----------------------------------------------------------------------
# End-to-end rounds/sec
# ----------------------------------------------------------------------
def bench_end_to_end(
    scheme: str, n_nodes: int, k: int, seed: int
) -> dict[str, float]:
    """One seeded epidemic dissemination; report simulated rounds/sec."""
    from repro.gossip.simulator import EpidemicSimulator

    sim = EpidemicSimulator(
        scheme, n_nodes=n_nodes, k=k, seed=seed, max_rounds=200_000
    )
    t0 = time.perf_counter()
    result = sim.run()
    seconds = time.perf_counter() - t0
    return {
        "n_nodes": n_nodes,
        "k": k,
        "rounds": result.rounds,
        "sessions": result.sessions,
        "all_complete": result.all_complete,
        "seconds": round(seconds, 6),
        "rounds_per_sec": round(result.rounds / seconds, 1),
        "sessions_per_sec": round(result.sessions / seconds, 1),
    }


def bench_n_scaling(
    n_nodes: int,
    k: int,
    seed: int,
    max_rounds: int | None = None,
) -> dict[str, object]:
    """Round throughput at one overlay size.

    Runs one seeded LTNC dissemination (binary feedback, the baseline
    shape at a fixed small k so per-node decode work stays constant
    while N scales) and reports rounds/sec under the row's ``batched``
    key; *max_rounds* bounds the largest overlays.
    """
    from repro.gossip.simulator import EpidemicSimulator, Feedback

    sim = EpidemicSimulator(
        "ltnc",
        n_nodes=n_nodes,
        k=k,
        feedback=Feedback.BINARY,
        seed=seed,
        max_rounds=max_rounds if max_rounds is not None else 200_000,
    )
    t0 = time.perf_counter()
    result = sim.run()
    seconds = time.perf_counter() - t0
    return {
        "n_nodes": n_nodes,
        "k": k,
        "max_rounds": max_rounds,
        "batched": {
            "rounds": result.rounds,
            "all_complete": result.all_complete,
            "seconds": round(seconds, 6),
            "rounds_per_sec": round(result.rounds / seconds, 2),
        },
    }


def bench_phases(
    scheme: str, n_nodes: int, k: int, seed: int
) -> dict[str, object]:
    """Per-phase wall time of one seeded epidemic dissemination.

    Re-runs the :func:`bench_end_to_end` workload (same scheme, sizes
    and seed, hence the identical rng stream and round count) with a
    :class:`~repro.obs.PhaseProfiler` attached, and reports seconds and
    call counts per phase — sampling / channel / encode / decode, plus
    the LTNC-only refine slice (a subset of encode, not additive).
    ``measured_fraction`` says how much of the wall clock the phase
    brackets account for; the remainder is loop scaffolding.
    """
    from repro.gossip.simulator import EpidemicSimulator
    from repro.obs import PhaseProfiler

    profiler = PhaseProfiler()
    sim = EpidemicSimulator(
        scheme,
        n_nodes=n_nodes,
        k=k,
        seed=seed,
        max_rounds=200_000,
        profiler=profiler,
    )
    t0 = time.perf_counter()
    result = sim.run()
    seconds = time.perf_counter() - t0
    # refine is a subset of encode: exclude it so measured_seconds is
    # a genuine (non-double-counted) slice of the wall clock.
    measured = sum(
        s for phase, s in profiler.seconds.items() if phase != "refine"
    )
    return {
        "n_nodes": n_nodes,
        "k": k,
        "rounds": result.rounds,
        "all_complete": result.all_complete,
        "seconds": round(seconds, 6),
        "measured_seconds": round(measured, 6),
        "measured_fraction": round(measured / seconds, 4) if seconds else 0.0,
        "phases": profiler.snapshot(),
    }


def bench_fleet(
    n_trials: int,
    n_nodes: int,
    k: int,
    seed: int,
    n_workers: int | None = None,
    n_shards: int = 4,
) -> dict[str, float]:
    """Trial-grid throughput through the sharded fleet runner.

    Runs a seed-pinned ``baseline``-shaped grid (uniform sampling,
    LTNC defaults) through :class:`~repro.scenarios.fleet.FleetRunner`
    — chunked pool dispatch, shard-streamed aggregation, no
    checkpointing — and reports trials/sec.  The *work* is identical
    run to run; only wall-clock varies with the host, as everywhere in
    this harness.  Since v4 the row carries the workload's in-worker
    telemetry counters (:mod:`repro.obs.metrics`), which *are*
    deterministic — a changed counter means the workload itself
    changed, not the host.  The fleet writes its ``telemetry.json`` to
    a throwaway directory; the counters come from
    :attr:`~repro.scenarios.fleet.FleetRunner.last_telemetry`.
    """
    from repro.scenarios.fleet import FleetRunner
    from repro.scenarios.spec import ScenarioSpec

    if n_workers is None:
        n_workers = min(4, os.cpu_count() or 1)
    spec = ScenarioSpec(name="fleet_baseline", n_nodes=n_nodes, k=k)
    with tempfile.TemporaryDirectory() as telemetry_dir:
        runner = FleetRunner(
            n_workers=n_workers, n_shards=n_shards, telemetry_dir=telemetry_dir
        )
        t0 = time.perf_counter()
        aggregate = runner.run(spec, n_trials, master_seed=seed)
        seconds = time.perf_counter() - t0
    summary = aggregate.metrics_summary()
    section = (runner.last_telemetry or {}).get(spec.name, {})
    return {
        "n_trials": n_trials,
        "n_nodes": n_nodes,
        "k": k,
        "n_workers": n_workers,
        "n_shards": n_shards,
        "completed_fraction": summary["completed_fraction"]["mean"],
        "seconds": round(seconds, 6),
        "trials_per_sec": round(n_trials / seconds, 2),
        "telemetry": {
            "n_trials": section.get("n_trials", 0),
            "counters": dict(section.get("counters", {})),
        },
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_perfbench(
    profile: str = "full",
    seed: int = DEFAULT_SEED,
    ks: Sequence[int] = KERNEL_KS,
    schemes: Sequence[str] | None = None,
    include_baseline: bool = True,
) -> dict[str, object]:
    """Run the whole suite; return the JSON-able report."""
    if profile not in _PROFILES:
        raise ValueError(
            f"unknown profile {profile!r}; expected one of {sorted(_PROFILES)}"
        )
    sizes = _PROFILES[profile]
    if schemes is None:
        from repro.schemes import available_schemes

        schemes = available_schemes()

    rref: dict[str, dict[str, float]] = {}
    bitvec: dict[str, dict[str, float]] = {}
    decode: dict[str, dict[str, float]] = {}
    for k in ks:
        entry = bench_rref_insert_reduce(
            k, sizes["rref_vectors"], seed, kernel="fast"
        )
        if include_baseline:
            base = bench_rref_insert_reduce(
                k, sizes["baseline_vectors"], seed, kernel="reference"
            )
            entry["baseline_ops_per_sec"] = base["ops_per_sec"]
            entry["speedup_vs_baseline"] = round(
                entry["ops_per_sec"] / base["ops_per_sec"], 2
            )
        rref[f"k={k}"] = entry
        bitvec[f"k={k}"] = bench_bitvector_ops(k, sizes["bitvec_ops"], seed)
        decode[f"k={k}"] = bench_decode(k, sizes["decode_batches"], seed)

    kernel_batch = {
        f"k={k}": bench_kernel_batch(k, seed)
        for k in sizes["kernel_batch_ks"]
    }

    end_to_end = {
        scheme: bench_end_to_end(
            scheme, sizes["e2e_nodes"], sizes["e2e_k"], seed
        )
        for scheme in schemes
    }

    n_scaling = {
        f"n={n_nodes}": bench_n_scaling(
            n_nodes, sizes["n_scaling_k"], seed, max_rounds=cap
        )
        for n_nodes, cap in sizes["n_scaling"]
    }
    if sizes["n_scaling_completion"]:
        n_scaling["completion"] = bench_n_scaling(
            sizes["n_scaling_completion"], sizes["n_scaling_k"], seed
        )

    phases = {
        scheme: bench_phases(
            scheme, sizes["e2e_nodes"], sizes["e2e_k"], seed
        )
        for scheme in schemes
    }

    fleet = bench_fleet(
        sizes["fleet_trials"],
        sizes["fleet_nodes"],
        sizes["fleet_k"],
        seed,
        n_shards=sizes["fleet_shards"],
    )

    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "ltnc-perfbench",
        "profile": profile,
        "seed": seed,
        "kernel": "python-int",
        "baseline_kernel": (
            "numpy-words (repro.gf2.reference)" if include_baseline else None
        ),
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
        },
        "microbench": {
            "rref_insert_reduce": rref,
            "bitvector": bitvec,
            "decode": decode,
            "kernel_batch": kernel_batch,
        },
        "end_to_end": end_to_end,
        "n_scaling": n_scaling,
        "phases": phases,
        "fleet": fleet,
    }


def validate_bench(data: dict[str, object]) -> None:
    """Raise ``ValueError`` unless *data* is a complete perfbench report.

    Used by the CI smoke step and the test suite, so a refactor that
    silently drops a microbench (or records zero throughput) fails the
    build rather than thinning the perf trajectory.
    """
    errors: list[str] = []
    version = data.get("schema_version")
    # Version-aware: v4 and v5 reports (the checked-in history trail)
    # still validate against the sections they were written with; the
    # v5 additions are required from v5 on.
    if version not in (4, 5, SCHEMA_VERSION):
        errors.append(f"schema_version not in (4, 5, {SCHEMA_VERSION})")
    if data.get("suite") != "ltnc-perfbench":
        errors.append("suite != 'ltnc-perfbench'")
    micro = data.get("microbench")
    if not isinstance(micro, dict):
        errors.append("microbench section missing")
        micro = {}
    micro_sections = [
        ("rref_insert_reduce", "ops_per_sec"),
        ("bitvector", "ixor_per_sec"),
        ("decode", "gauss_packets_per_sec"),
    ]
    if version != 4:
        micro_sections.append(("kernel_batch", "numpy_ops_per_sec"))
    for section, rate_key in micro_sections:
        table = micro.get(section)
        if not isinstance(table, dict) or not table:
            errors.append(f"microbench.{section} missing or empty")
            continue
        for label, entry in table.items():
            rate = entry.get(rate_key, 0) if isinstance(entry, dict) else 0
            if not rate or rate <= 0:
                errors.append(
                    f"microbench.{section}[{label}].{rate_key} not positive"
                )
    e2e = data.get("end_to_end")
    if not isinstance(e2e, dict) or not e2e:
        errors.append("end_to_end section missing or empty")
    else:
        for scheme, entry in e2e.items():
            if not isinstance(entry, dict) or entry.get("rounds_per_sec", 0) <= 0:
                errors.append(f"end_to_end[{scheme}].rounds_per_sec not positive")
            elif not entry.get("all_complete"):
                errors.append(f"end_to_end[{scheme}] did not complete")
    if version != 4:
        scaling = data.get("n_scaling")
        if not isinstance(scaling, dict) or not scaling:
            errors.append("n_scaling section missing or empty")
        else:
            for label, entry in scaling.items():
                if not isinstance(entry, dict):
                    errors.append(f"n_scaling[{label}] not a row")
                    continue
                batched = entry.get("batched")
                if (
                    not isinstance(batched, dict)
                    or batched.get("rounds_per_sec", 0) <= 0
                ):
                    errors.append(
                        f"n_scaling[{label}].batched.rounds_per_sec "
                        "not positive"
                    )
                if "scalar" in entry and (
                    entry.get("speedup_batched_vs_scalar", 0) <= 0
                ):
                    errors.append(
                        f"n_scaling[{label}].speedup_batched_vs_scalar "
                        "not positive"
                    )
                if label == "completion" and not (
                    isinstance(batched, dict) and batched.get("all_complete")
                ):
                    errors.append(
                        "n_scaling.completion did not run to completion"
                    )
    if version == 5 and "ltnc_batched" not in (data.get("phases") or {}):
        errors.append("phases.ltnc_batched missing")
    phases = data.get("phases")
    if not isinstance(phases, dict) or not phases:
        errors.append("phases section missing or empty")
    else:
        for scheme, entry in phases.items():
            table = entry.get("phases") if isinstance(entry, dict) else None
            if not isinstance(table, dict) or not table:
                errors.append(f"phases[{scheme}].phases missing or empty")
                continue
            for required in ("encode", "decode"):
                cell = table.get(required)
                if not isinstance(cell, dict) or cell.get("calls", 0) <= 0:
                    errors.append(
                        f"phases[{scheme}].phases.{required} missing or "
                        "never called"
                    )
            if any(
                cell.get("seconds", -1.0) < 0.0
                for cell in table.values()
                if isinstance(cell, dict)
            ):
                errors.append(f"phases[{scheme}] has a negative phase time")
    fleet = data.get("fleet")
    if not isinstance(fleet, dict):
        errors.append("fleet section missing")
    else:
        if fleet.get("trials_per_sec", 0) <= 0:
            errors.append("fleet.trials_per_sec not positive")
        if fleet.get("completed_fraction", 0) != 1.0:
            errors.append("fleet.completed_fraction != 1.0")
        telemetry = fleet.get("telemetry")
        if not isinstance(telemetry, dict):
            errors.append("fleet.telemetry section missing")
        else:
            if telemetry.get("n_trials", 0) != fleet.get("n_trials"):
                errors.append(
                    "fleet.telemetry.n_trials does not cover the grid"
                )
            counters = telemetry.get("counters")
            if not isinstance(counters, dict) or not counters:
                errors.append("fleet.telemetry.counters missing or empty")
            elif any(
                not isinstance(v, int) or v < 0 for v in counters.values()
            ):
                errors.append(
                    "fleet.telemetry.counters has a negative/non-int value"
                )
    if errors:
        raise ValueError("invalid perfbench report: " + "; ".join(errors))


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.perfbench",
        description="Time the GF(2) kernel and simulator hot loops and "
        "write a BENCH_ltnc.json perf report.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small CI-friendly workloads (seconds, not minutes)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"output JSON path (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED, help="workload seed"
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip timing the reference numpy kernel",
    )
    parser.add_argument(
        "--history-dir",
        default=None,
        metavar="DIR",
        help="also append a timestamped copy (bench-YYYYmmddTHHMMSSZ"
        ".json) here, building the trajectory that "
        "python -m repro.experiments.benchdiff --history diffs",
    )
    args = parser.parse_args(argv)
    report = run_perfbench(
        profile="quick" if args.quick else "full",
        seed=args.seed,
        include_baseline=not args.no_baseline,
    )
    validate_bench(report)
    from repro.scenarios.aggregate import atomic_write_text

    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    atomic_write_text(pathlib.Path(args.out), text)
    if args.history_dir:
        stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
        history = pathlib.Path(args.history_dir) / f"bench-{stamp}.json"
        atomic_write_text(history, text)
        print(f"appended history copy {history}", file=sys.stderr)
    rref64 = report["microbench"]["rref_insert_reduce"].get("k=64", {})
    line = f"wrote {args.out}: rref k=64 {rref64.get('ops_per_sec', '?')} ops/s"
    if "speedup_vs_baseline" in rref64:
        line += (
            f" ({rref64['speedup_vs_baseline']}x vs numpy baseline "
            f"{rref64['baseline_ops_per_sec']} ops/s)"
        )
    fleet = report["fleet"]
    line += (
        f"; fleet {fleet['trials_per_sec']} trials/s "
        f"({fleet['n_trials']}-trial grid, {fleet['n_shards']} shards)"
    )
    big = max(report["n_scaling"].values(), key=lambda row: row["n_nodes"])
    line += (
        f"; {big['batched']['rounds_per_sec']} rounds/s "
        f"at N={big['n_nodes']}"
    )
    ltnc = report["phases"].get("ltnc")
    if ltnc:
        table = ltnc["phases"]
        enc = table.get("encode", {}).get("fraction", 0.0)
        dec = table.get("decode", {}).get("fraction", 0.0)
        line += f"; ltnc phases encode {enc:.0%} / decode {dec:.0%}"
    print(line)
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
