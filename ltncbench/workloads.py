"""The three benchmark workloads and the closed loops that run them.

Every workload is a closed loop: the next trial starts when the
previous one (or, in the fleet, a worker) is free.  Inputs come only
from the workload seed: :func:`trial_seed` hashes ``(workload, seed,
index)`` into the integer seeds the program receives, and the specs are
fixed per workload and size.

``ltnc_baseline``
    LTNC, N=32, k=128, 1 % aggressiveness, binary feedback, uniform
    gossip, perfect channel — the paper's §IV-A shape.  Trials run one
    after another in this process; below ``BATCH_AUTO_NODES`` the
    simulator takes its scalar round loop with the reference LTNC
    bodies.
``ltnc_overlay_1k``
    The same protocol at N=1024, k=16: the batched round planner and
    the fast LTNC bodies, 1,025 nodes built per trial.
``fleet_sweep``
    ``wc``, ``rlnc`` and ``sparse_rlnc`` (density 0.1) at N=32/k=128,
    ``rlnc`` at N=8/k=1024 and the quick-profile
    ``edge_cache_catalogue`` preset, four trials each, through
    ``FleetRunner(n_workers=2, checkpoint_dir=...)`` with its default
    shard count — the way the sweep CLIs run long sweeps.
"""

from __future__ import annotations

import gc
import hashlib
import pathlib
import statistics
import tempfile
import time
from dataclasses import dataclass

from repro.experiments.scale import PROFILES
from repro.scenarios.fleet import FleetRunner
from repro.scenarios.presets import edge_cache_catalogue
from repro.scenarios.spec import ScenarioSpec

from checks import check_record, check_result

__all__ = [
    "SHAPES",
    "WORKLOADS",
    "Pass",
    "Shape",
    "Trial",
    "aggregate_json",
    "fleet_batch",
    "fleet_trials",
    "protocol_metrics",
    "run_fleet",
    "run_serial",
    "setup_times",
    "trial_seed",
]

_LTNC = {"aggressiveness": 0.01}


@dataclass(frozen=True)
class Shape:
    """One workload at one size.

    A run's unit of work is a trial (serial workloads) or one
    ``run_grid`` batch of ``batch_trials`` trials per scenario (the
    fleet).  Every timed run completes at least ``min_units`` units, the
    fixed prefix over which the protocol metrics and exact work counts
    are taken, so those depend on the seed alone; the traced pass runs
    the first ``trace_units``.  ``setup_reps`` builds are timed before
    the timed section.
    """

    name: str
    specs: tuple[ScenarioSpec, ...]
    min_units: int
    trace_units: int
    setup_reps: int
    batch_trials: int = 0
    n_workers: int = 1

    @property
    def fleet(self) -> bool:
        return self.batch_trials > 0


def _ltnc(name: str, n_nodes: int, k: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=name, scheme="ltnc", n_nodes=n_nodes, k=k, node_kwargs=dict(_LTNC)
    )


def _fleet_specs(n_nodes: int, k: int, big_nodes: int) -> tuple[ScenarioSpec, ...]:
    return (
        ScenarioSpec(name="wc", scheme="wc", n_nodes=n_nodes, k=k),
        ScenarioSpec(name="rlnc", scheme="rlnc", n_nodes=n_nodes, k=k),
        ScenarioSpec(
            name="sparse_rlnc",
            scheme="sparse_rlnc",
            n_nodes=n_nodes,
            k=k,
            node_kwargs={"density": 0.1},
        ),
        ScenarioSpec(name="rlnc_k1024", scheme="rlnc", n_nodes=big_nodes, k=1024),
        edge_cache_catalogue(PROFILES["quick"]),
    )


#: (workload, size) -> shape.  ``tiny`` keeps every layer of the full
#: shape (the overlay stays above the batching threshold, the fleet
#: keeps k=1024 for the numpy kernel) at a size the self-test can run.
SHAPES: dict[tuple[str, str], Shape] = {
    ("ltnc_baseline", "full"): Shape(
        "ltnc_baseline", (_ltnc("ltnc_baseline", 32, 128),), 4, 2, 20
    ),
    ("ltnc_baseline", "tiny"): Shape(
        "ltnc_baseline", (_ltnc("ltnc_baseline", 8, 16),), 2, 1, 3
    ),
    ("ltnc_overlay_1k", "full"): Shape(
        "ltnc_overlay_1k", (_ltnc("ltnc_overlay_1k", 1024, 16),), 4, 1, 10
    ),
    ("ltnc_overlay_1k", "tiny"): Shape(
        "ltnc_overlay_1k", (_ltnc("ltnc_overlay_1k", 256, 4),), 1, 1, 2
    ),
    ("fleet_sweep", "full"): Shape(
        "fleet_sweep", _fleet_specs(32, 128, 8), 2, 1, 10, batch_trials=4,
        n_workers=2,
    ),
    ("fleet_sweep", "tiny"): Shape(
        "fleet_sweep", _fleet_specs(8, 16, 2), 1, 1, 1, batch_trials=2,
        n_workers=2,
    ),
}

WORKLOADS = tuple(dict.fromkeys(name for name, _ in SHAPES))


def trial_seed(workload: str, seed: int, index: int) -> int:
    """The 63-bit program seed of trial (or fleet batch) *index*."""
    digest = hashlib.sha256(f"ltncbench/{workload}/{seed}/{index}".encode())
    return int.from_bytes(digest.digest()[:8], "big") >> 1


_SUMMARY = ("rounds", "sessions", "overhead", "average_completion_round")


@dataclass
class Trial:
    """One checked trial: a result object (serial) or a fleet record."""

    seed: int
    spec: ScenarioSpec
    outcome: object
    violations: list[str]
    run_s: float | None = None  # serial trials: build + run seconds

    def summary(self) -> dict[str, object]:
        """Seed, scenario, seconds and the scalar outcomes the metrics use."""
        o = self.outcome
        metrics = o if isinstance(o, dict) else o.key_metrics()
        return {
            "seed": self.seed,
            "scenario": self.spec.name,
            "run_s": self.run_s,
            **{key: metrics[key] for key in _SUMMARY},
        }


@dataclass
class Pass:
    """One pass over a workload: its trials and the wall time they took."""

    trials: list[Trial]
    wall_s: float
    build_s: list[float]
    prefix_len: int

    @property
    def prefix(self) -> list[Trial]:
        """The fixed-size prefix the protocol metrics are taken over."""
        return self.trials[: self.prefix_len]


def _time_builds(specs, seeds) -> list[float]:
    """Seconds per ``ScenarioSpec.build`` call, one per (spec, seed)."""
    times = []
    for spec, seed in zip(specs, seeds):
        t0 = time.perf_counter()
        spec.build(seed)
        times.append(time.perf_counter() - t0)
    gc.collect()
    return times


def setup_times(sh: Shape, seed: int) -> list[float]:
    """Build times measured before the timed section (it also warms up).

    Serial workloads: one ``build`` per repetition.  The fleet: per
    repetition, the mean build time over the grid's scenarios, so a
    slower build of any one scenario moves the median.
    """
    reps = []
    for r in range(sh.setup_reps):
        times = _time_builds(sh.specs, [trial_seed(sh.name, seed, r)] * len(sh.specs))
        reps.append(statistics.fmean(times))
    return reps


def run_serial(
    sh: Shape, seed: int, seconds: float, min_units: int, specs=None, first=0
) -> Pass:
    """Closed loop of trials in this process for *seconds* (at least
    *min_units*), from trial index *first*; each trial is
    ``spec.build(seed)`` then ``run()``.
    """
    (spec,) = specs or sh.specs
    builds: list[float] = []
    trials: list[Trial] = []
    start = time.perf_counter()
    while len(trials) < min_units or time.perf_counter() - start < seconds:
        s = trial_seed(sh.name, seed, first + len(trials))
        t0 = time.perf_counter()
        sim = spec.build(s)
        builds.append(time.perf_counter() - t0)
        result = sim.run()
        trials.append(Trial(s, spec, result, [], time.perf_counter() - t0))
        # LTNC nodes hold reference cycles: free the finished simulator
        # now, so peak RSS is one trial's, not a garbage-collector accident.
        del sim
        gc.collect()
    wall = time.perf_counter() - start
    for trial in trials:
        trial.violations = check_result(trial.outcome, spec.max_rounds)
    return Pass(trials, wall, builds, min_units)


def fleet_batch(
    sh: Shape, master_seed: int, workdir: pathlib.Path, n_workers: int,
    specs=None, n_shards: int | None = None,
) -> tuple[dict, pathlib.Path]:
    """One checkpointed ``FleetRunner.run_grid`` over the sweep grid."""
    ckpt = pathlib.Path(tempfile.mkdtemp(prefix="ckpt-", dir=workdir))
    runner = FleetRunner(
        n_workers=n_workers, n_shards=n_shards, checkpoint_dir=ckpt
    )
    return runner.run_grid(specs or sh.specs, sh.batch_trials, master_seed), ckpt


def aggregate_json(aggregates: dict) -> str:
    """The batch's aggregates as the sweep CLIs serialise them."""
    return "\n".join(aggregates[name].to_json() for name in sorted(aggregates))


def fleet_trials(sh: Shape, aggregates: dict) -> list[Trial]:
    """Checked trial records of one batch, in grid order."""
    return [
        Trial(record["seed"], spec, record, check_record(record, spec.max_rounds))
        for spec in sh.specs
        for record in aggregates[spec.name].to_dict()["trials"]
    ]


def run_fleet(sh: Shape, seed: int, seconds: float, workdir: pathlib.Path) -> Pass:
    """Closed loop of fleet batches for *seconds* (at least ``min_units``)."""
    batches = []
    start = time.perf_counter()
    while len(batches) < sh.min_units or time.perf_counter() - start < seconds:
        master = trial_seed(sh.name, seed, len(batches))
        batches.append(fleet_batch(sh, master, workdir, sh.n_workers)[0])
    wall = time.perf_counter() - start
    trials = [t for aggs in batches for t in fleet_trials(sh, aggs)]
    return Pass(trials, wall, [], sh.min_units * sh.batch_trials * len(sh.specs))


def protocol_metrics(p: Pass) -> dict[str, float]:
    """Fig. 7c overhead and Fig. 7b completion round over the prefix.

    A trial where no node completed has neither; it fails its check, and
    the means are over the trials that have them.
    """
    rows = [t.summary() for t in p.prefix]

    def mean(key: str) -> float:
        values = [r[key] for r in rows if r[key] is not None]
        return statistics.fmean(values) if values else 0.0

    return {
        "overhead_pct": 100.0 * mean("overhead"),
        "completion_round_mean": mean("average_completion_round"),
    }
