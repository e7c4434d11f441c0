"""Declarative dissemination scenarios and their parallel trial runner.

:mod:`~repro.scenarios.spec` defines :class:`ScenarioSpec`, a frozen
JSON-serialisable workload description that compiles into a configured
:class:`~repro.gossip.simulator.EpidemicSimulator`;
:mod:`~repro.scenarios.presets` is the built-in catalogue (``baseline``,
``multihop_lossy``, ``edge_cache``, ``churn``, the graph-structured
``sensor_grid``, ``smallworld_gossip``, ``scalefree_p2p`` and
``powerline_multihop`` riding :mod:`repro.topology`, plus the
multi-content ``zipf_catalogue``, ``edge_cache_catalogue`` and
``striped_vod`` riding :mod:`repro.content`, plus ``sparse_rlnc``
riding the :mod:`repro.schemes` registry), and the figure grids of the
paper's evaluation (``fig7a_convergence`` ... ``text_stats``, one
group per report under ``benchmarks/out/``);
groups and ``<preset>[<scheme>]`` re-pointings expand through
:func:`expand_scenarios`; :mod:`~repro.scenarios.fleet` runs
scenario × seed grids as checkpointable shards with interrupt-safe
resume (:class:`FleetRunner`, the one grid runner), over the worker
map of :mod:`~repro.scenarios.runner`;
:mod:`~repro.scenarios.aggregate` folds the per-trial results into
mean/CI summaries with deterministic JSON export.

CLI (the one sweep CLI): ``python -m repro.scenarios --scenario churn
--trials 8 --workers 4 --seed 7``, or ``--scenario topology``,
``content``, ``schemes``, ``fig7b_completion_time``,
``'baseline[wc]' 'baseline[rlnc]'``, ...
"""

from repro.content.spec import CatalogueSpec, ContentSpec
from repro.scenarios.aggregate import (
    ScenarioAggregate,
    comparison_rows,
    summary_stats,
    trial_record,
)
from repro.scenarios.fleet import (
    CheckpointStore,
    FleetRunner,
    FleetStop,
    ShardSpec,
    WorkerLost,
    grid_fingerprint,
    plan_shards,
)
from repro.scenarios.presets import (
    CONTENT_PRESETS,
    PRESETS,
    TOPOLOGY_PRESETS,
    baseline,
    churn,
    edge_cache,
    edge_cache_catalogue,
    expand_scenarios,
    get_preset,
    get_scenario,
    multihop_lossy,
    powerline_multihop,
    preset_names,
    scalefree_p2p,
    scenario_groups,
    sensor_grid,
    smallworld_gossip,
    sparse_rlnc,
    striped_vod,
    zipf_catalogue,
)
from repro.scenarios.runner import (
    TrialSpec,
    default_chunksize,
    parallel_map,
    run_trial,
    trial_seed,
)
from repro.scenarios.spec import ScenarioSpec
from repro.topology.spec import TopologySpec

__all__ = [
    "ScenarioAggregate",
    "comparison_rows",
    "summary_stats",
    "trial_record",
    "CheckpointStore",
    "FleetRunner",
    "FleetStop",
    "ShardSpec",
    "WorkerLost",
    "grid_fingerprint",
    "plan_shards",
    "default_chunksize",
    "CONTENT_PRESETS",
    "PRESETS",
    "TOPOLOGY_PRESETS",
    "baseline",
    "churn",
    "edge_cache",
    "edge_cache_catalogue",
    "expand_scenarios",
    "get_preset",
    "get_scenario",
    "multihop_lossy",
    "powerline_multihop",
    "preset_names",
    "scalefree_p2p",
    "scenario_groups",
    "sensor_grid",
    "smallworld_gossip",
    "sparse_rlnc",
    "striped_vod",
    "zipf_catalogue",
    "CatalogueSpec",
    "ContentSpec",
    "TopologySpec",
    "TrialSpec",
    "parallel_map",
    "run_trial",
    "trial_seed",
    "ScenarioSpec",
]
