#!/usr/bin/env python3
"""Edge catalogue: multi-content dissemination with caches at the roots.

Four steps:

1. declare a catalogue workload — three contents under Zipf demand on
   an origin → edge-cache → client tree, with the nodes nearest the
   root running LRU packet caches for contents they don't want
   themselves;
2. run one trial and read the per-content completion next to the
   aggregate;
3. see where the data came from: the cache hit ratio and the fraction
   served from the edge rather than the origin;
4. rerun the trial from its integer seed — catalogue workloads keep
   the same bit-reproducibility contract as single-content ones.

Run:  PYTHONPATH=src python examples/edge_catalogue.py
"""

from repro.experiments.scale import PROFILES
from repro.scenarios import ScenarioSpec, get_preset

PROFILE = PROFILES["quick"]
SEED = 2026


def main() -> None:
    # -- 1. the preset, plus the same workload declared from scratch.
    preset = get_preset("edge_cache_catalogue", PROFILE)
    custom = ScenarioSpec(
        name="my_catalogue",
        scheme="ltnc",
        n_nodes=PROFILE.n_nodes,
        k=PROFILE.k_default,
        sampler="topology",
        topology={"graph": "edge_tree", "params": {"branching": 3},
                  "loss_mode": "hop", "per_hop_loss": 0.01},
        content={
            "n_contents": 3,
            "k": PROFILE.k_default // 2,
            "demand": "zipf",
            "zipf_s": 1.2,
            "interests_per_node": 1,
            "cache_policy": "lru",
            "cache_fraction": 0.25,
            "cache_capacity": (3 * (PROFILE.k_default // 2)) // 2,
            "cache_at_root": True,
        },
        node_kwargs={"aggressiveness": 0.01},
    )
    print("catalogue spec round-trips losslessly:")
    print(" ", custom.to_json(indent=None)[:76], "...")
    assert ScenarioSpec.from_json(custom.to_json()) == custom

    # -- 2. one trial; per-content completion next to the aggregate.
    result = preset.run(SEED)
    metrics = result.key_metrics()
    print(f"\n{preset.name}: {result.rounds} rounds, "
          f"{result.completed_count}/{result.n_pairs} interest pairs done")
    for name in result.content_names:
        frac = metrics[f"content:{name}:completed_fraction"]
        avg = metrics[f"content:{name}:average_completion_round"]
        print(f"  content {name:4s} completed {frac:.0%}"
              f"  avg round {avg:6.1f}")

    # -- 3. where the data came from.
    print(f"\nserved from the edge: {metrics['edge_served_fraction']:.1%} "
          f"of data transfers (cache hits: {metrics['cache_hit_ratio']:.1%})")
    print(f"cache packets stored {metrics['cache_stored']}, "
          f"evictions {metrics['cache_evictions']}, "
          f"rejects {metrics['cache_rejects']}")

    # -- 4. bit-reproducible from the integer seed alone.
    rerun = preset.run(SEED)
    assert rerun.key_metrics() == metrics
    print(f"\ntrial reran bit-identically from seed {SEED}")


if __name__ == "__main__":
    main()
