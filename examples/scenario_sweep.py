#!/usr/bin/env python3
"""Scenario sweep: declarative workloads on the parallel fleet runner.

Three steps:

1. pick scenarios — two from the built-in catalogue plus one custom
   spec (a lossy, churning edge network) declared inline;
2. fan a scenario × seed grid out across worker processes with
   :class:`~repro.scenarios.fleet.FleetRunner` — every trial is
   reproducible standalone from its integer seed;
3. read the aggregated mean ± 95 % CI summaries.

Run:  PYTHONPATH=src python examples/scenario_sweep.py
"""

import os

from repro.experiments.scale import PROFILES
from repro.gossip.channel import ChurnPhase
from repro.scenarios import FleetRunner, ScenarioSpec, get_preset

PROFILE = PROFILES["quick"]
TRIALS = 4
SEED = 7


def main() -> None:
    # -- 1. two catalogue presets, one custom scenario.
    custom = ScenarioSpec(
        name="lossy_edge_storm",
        scheme="ltnc",
        n_nodes=PROFILE.n_nodes,
        k=PROFILE.k_default,
        loss_rate=0.1,
        n_sources=2,
        warm_fraction=0.25,
        warm_packets=PROFILE.k_default // 4,
        churn_phases=(ChurnPhase(start=10, end=40, rate=0.05),),
        node_kwargs={"aggressiveness": 0.01},
    )
    scenarios = [
        get_preset("baseline", PROFILE),
        get_preset("edge_cache", PROFILE),
        custom,
    ]
    print("scenario JSON round-trips losslessly:")
    print(" ", custom.to_json(indent=None)[:76], "...")

    # -- 2. the full grid, in parallel.
    workers = min(4, os.cpu_count() or 1)
    runner = FleetRunner(n_workers=workers)
    aggregates = runner.run_grid(scenarios, TRIALS, master_seed=SEED)
    print(f"\n{TRIALS} trials x {len(scenarios)} scenarios "
          f"on {workers} workers:")

    # -- 3. mean +/- CI summaries.
    for spec in scenarios:
        summary = aggregates[spec.name].metrics_summary()
        rounds = summary["rounds"]
        overhead = summary["overhead"]
        print(
            f"  {spec.name:18s} rounds {rounds['mean']:6.1f} "
            f"+/- {rounds['ci95']:5.1f}   overhead {overhead['mean']:.3f}"
        )

    # Any trial reruns bit-identically from its recorded integer seed.
    trial = aggregates["baseline"].trials[0]
    rerun = scenarios[0].run(trial["seed"])
    assert rerun.key_metrics()["rounds"] == trial["rounds"]
    print("\ntrial 0 of 'baseline' reran bit-identically from seed",
          trial["seed"])


if __name__ == "__main__":
    main()
