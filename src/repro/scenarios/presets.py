"""Built-in scenario catalogue.

Four presets, each parameterised by the active
:class:`~repro.experiments.scale.ScaleProfile` so the same scenario
runs as a CI smoke (``LTNC_SCALE=quick``), a laptop bench (``default``)
or at the paper's testbed size (``paper``):

``baseline``
    The paper's §IV-A setup: one source, uniform gossip, perfect
    channel, binary feedback.
``multihop_lossy``
    Heterogeneous per-receiver loss modelling a multihop relay chain:
    nodes sit in rings of increasing hop distance from the source and
    each hop compounds erasures (Kabore et al., LT codes over
    multihop powerline smart-grid networks).
``edge_cache``
    Coded edge caching (Recayte et al.): several replicated origins
    and half the nodes pre-warmed with a partial cache of coded
    packets before the gossip epoch starts.
``churn``
    A stable network hit by a mid-dissemination churn storm — a
    scheduled burst an order of magnitude above the background rate.

Four more presets ride the :mod:`repro.topology` subsystem — gossip
constrained to graph neighbourhoods, loss derived from hop distance:

``sensor_grid``
    A 2-D sensor lattice with per-hop erasures; the sink (source)
    feeds the corner node's neighbourhood.
``smallworld_gossip``
    A Watts–Strogatz small-world overlay with a long-range escape
    probability on top of the rewired shortcuts.
``scalefree_p2p``
    A Barabási–Albert scale-free overlay: hubs dominate the gossip
    exchange, leaves depend on them.
``powerline_multihop``
    A pure feeder line with compounding per-hop loss — the
    graph-exact version of ``multihop_lossy``'s ring approximation
    (Kabore et al.).

Three more lift the stack to catalogue dissemination via
:mod:`repro.content` — many contents, skewed demand, node caches:

``zipf_catalogue``
    A four-content catalogue under Zipf demand: every node wants two
    contents, the origin schedules pushes by popularity, the tail
    starves relative to the head.
``edge_cache_catalogue``
    The origin → edge-cache → client hierarchy (Recayte et al.): an
    ``edge_tree`` overlay whose nodes nearest the root run LRU packet
    caches for contents outside their own interest sets.
``striped_vod``
    A two-title VOD library: every node wants both contents, each
    striped into generations (Tsai et al., multiple-configuration LT),
    fed round-robin by the origin.

One more rides the :mod:`repro.schemes` registry:

``sparse_rlnc``
    The baseline workload under the ``sparse_rlnc`` scheme —
    density-limited RLNC plugged in through a scheme descriptor alone
    (the registry's "add a scheme without touching the simulator"
    proof; see README "Adding a coding scheme").

And one exercises the round loop at scale:

``large_overlay``
    The N ≫ k scale-out regime: eight times the profile's overlay at
    half its code length.  The preset exists so goldens and sweeps
    cover overlay sizes where per-round control flow, not the data
    plane, dominates.

Add a scenario by writing a ``def my_scenario(profile) -> ScenarioSpec``
factory that builds on ``_cell`` (the profile's overlay size and code
length, the scheme's experiment defaults; it names only what differs)
and registering it in :data:`PRESETS`; everything downstream (CLI,
runner, benches, golden tests) picks it up by name.

The figures of the evaluation are grids of cells, declared here once
and named after the report their bench writes under
``benchmarks/out/`` (:data:`FIGURES`): ``fig7a_convergence``,
``fig7b_completion_time``, ``fig7c_overhead``, ``ablation_refinement``,
``ablation_redundancy``, ``ablation_feedback``, ``ablation_structure``,
``aggressiveness_sweep`` and ``text_stats``.  A cell's trial seeds
derive from its name (``fig7:<scheme>:n<N>:k<k>``, ``refine-on``,
``aggr-0.05``, ``textstats:n<N>:k<k>``, ...), so a figure's numbers
depend only on these declarations, the master seed and the trial
count.

Sweeps name their scenarios with :func:`expand_scenarios`, which
accepts, besides preset names, the groups of :func:`scenario_groups`
(``all``, ``topology``, ``content``, ``schemes`` and the figures) and
``<preset>[<scheme>]``: the preset re-pointed at a registered coding
scheme with that scheme's default node knobs (:func:`get_scenario`).
"""

from __future__ import annotations

import re
from typing import Callable, Iterable

from repro.content.spec import CatalogueSpec
from repro.errors import SimulationError
from repro.scenarios.spec import ScenarioSpec
from repro.gossip.channel import ChurnPhase
from repro.schemes import available_schemes, get_scheme
from repro.topology.spec import TopologySpec

__all__ = [
    "PRESETS",
    "TOPOLOGY_PRESETS",
    "CONTENT_PRESETS",
    "FIGURES",
    "baseline",
    "multihop_lossy",
    "edge_cache",
    "churn",
    "sensor_grid",
    "smallworld_gossip",
    "scalefree_p2p",
    "powerline_multihop",
    "zipf_catalogue",
    "edge_cache_catalogue",
    "striped_vod",
    "sparse_rlnc",
    "large_overlay",
    "fig7a_convergence",
    "fig7b_completion_time",
    "fig7c_overhead",
    "ablation_refinement",
    "ablation_redundancy",
    "ablation_feedback",
    "ablation_structure",
    "aggressiveness_sweep",
    "text_stats",
    "expand_scenarios",
    "get_preset",
    "get_scenario",
    "preset_names",
    "scenario_groups",
]


def _profile(profile=None):
    if profile is not None:
        return profile
    # Imported lazily: repro.experiments imports repro.scenarios for
    # the fleet, so a module-level import here would be a cycle.
    from repro.experiments.scale import current_profile

    return current_profile()


def _cell(
    p,
    name: str,
    scheme: str = "ltnc",
    node_kwargs: dict[str, object] | None = None,
    **fields,
) -> ScenarioSpec:
    """A scenario at the profile's overlay size and code length, unless
    *fields* say otherwise, under the scheme's experiment defaults
    (LTNC's 1 % aggressiveness, §IV-A) with *node_kwargs* merged over
    them.  Every other field keeps its :class:`ScenarioSpec` default."""
    defaults = get_scheme(scheme).default_node_kwargs
    return ScenarioSpec(
        name=name,
        scheme=scheme,
        **{"n_nodes": p.n_nodes, "k": p.k_default, **fields},
        node_kwargs={**defaults, **(node_kwargs or {})},
    )


def baseline(profile=None) -> ScenarioSpec:
    """The paper's dissemination setup at the active profile's size."""
    return _cell(_profile(profile), "baseline")


def multihop_lossy(profile=None) -> ScenarioSpec:
    """Per-receiver loss compounding with hop distance from the source.

    Nodes are split into four rings; ring *r* loses each payload with
    probability ``1 - (1 - p_hop)^(r+1)`` for a per-hop erasure rate of
    5 % — the closed form for a relay chain of independent hops.
    """
    p = _profile(profile)
    per_hop = 0.05
    rings = 4
    ring_size = (p.n_nodes + rings - 1) // rings
    node_loss = tuple(
        round(1.0 - (1.0 - per_hop) ** (i // ring_size + 1), 6)
        for i in range(p.n_nodes)
    )
    return _cell(p, "multihop_lossy", node_loss=node_loss)


def edge_cache(profile=None) -> ScenarioSpec:
    """Replicated origins plus pre-warmed caches at half the nodes."""
    p = _profile(profile)
    return _cell(
        p,
        "edge_cache",
        n_sources=2,
        warm_fraction=0.5,
        warm_packets=p.k_default // 2,
    )


def churn(profile=None) -> ScenarioSpec:
    """Background churn with a ten-fold storm early in the epoch."""
    p = _profile(profile)
    return _cell(
        p,
        "churn",
        churn_rate=0.01,
        churn_phases=(ChurnPhase(start=20, end=60, rate=0.1),),
    )


def sensor_grid(profile=None) -> ScenarioSpec:
    """A 2-D sensor lattice: neighbourhood gossip, per-hop erasures."""
    p = _profile(profile)
    return _cell(
        p,
        "sensor_grid",
        sampler="topology",
        topology=TopologySpec(
            graph="grid2d",
            loss_mode="hop",
            per_hop_loss=0.02,
            root=0,
        ),
    )


def smallworld_gossip(profile=None) -> ScenarioSpec:
    """Watts–Strogatz neighbourhood gossip with long-range escapes."""
    p = _profile(profile)
    return _cell(
        p,
        "smallworld_gossip",
        sampler="topology",
        topology=TopologySpec(
            graph="watts_strogatz",
            params={"k_nearest": 4, "rewire_p": 0.1},
            escape=0.05,
        ),
    )


def scalefree_p2p(profile=None) -> ScenarioSpec:
    """Barabási–Albert scale-free overlay: hub-mediated dissemination."""
    p = _profile(profile)
    return _cell(
        p,
        "scalefree_p2p",
        sampler="topology",
        topology=TopologySpec(
            graph="barabasi_albert",
            params={"m_attach": 2},
        ),
    )


def powerline_multihop(profile=None) -> ScenarioSpec:
    """A feeder line with loss compounding exactly with hop distance.

    The graph-exact successor of ``multihop_lossy``: instead of four
    loss rings approximating a relay chain, every link of the line
    loses 3 % and a transfer crossing *d* hops survives *d*
    independent erasures — including the head-end source's pushes down
    the feeder (Kabore et al., LT codes over powerline smart grids).
    """
    p = _profile(profile)
    return _cell(
        p,
        "powerline_multihop",
        sampler="topology",
        topology=TopologySpec(
            graph="line",
            loss_mode="hop",
            per_hop_loss=0.03,
            root=0,
        ),
    )


def zipf_catalogue(profile=None) -> ScenarioSpec:
    """A multi-content catalogue under Zipf demand, no caches.

    Four contents at half the profile's code length; every node wants
    two of them, drawn by Zipf(1.0) popularity, and the origin
    schedules its pushes from the same distribution — the head of the
    catalogue spreads epidemically while the tail relies on the few
    nodes that want it.
    """
    p = _profile(profile)
    return _cell(
        p,
        "zipf_catalogue",
        content=CatalogueSpec(
            n_contents=4,
            k=max(1, p.k_default // 2),
            demand="zipf",
            zipf_s=1.0,
            interests_per_node=2,
        ),
    )


def edge_cache_catalogue(profile=None) -> ScenarioSpec:
    """Edge caches at the roots of a distribution tree (Recayte et al.).

    An ``edge_tree`` overlay with per-hop erasures; the quarter of the
    nodes nearest the root run LRU caches sized to about 1.5 contents,
    storing and recoding catalogue entries *outside* their own interest
    sets, so clients deeper in the tree are served from the edge
    instead of the origin.
    """
    p = _profile(profile)
    k = max(1, p.k_default // 2)
    return _cell(
        p,
        "edge_cache_catalogue",
        sampler="topology",
        topology=TopologySpec(
            graph="edge_tree",
            params={"branching": 3},
            loss_mode="hop",
            per_hop_loss=0.01,
            root=0,
        ),
        content=CatalogueSpec(
            n_contents=3,
            k=k,
            demand="zipf",
            zipf_s=1.2,
            interests_per_node=1,
            cache_policy="lru",
            cache_fraction=0.25,
            cache_capacity=(3 * k) // 2,
            cache_at_root=True,
        ),
    )


def striped_vod(profile=None) -> ScenarioSpec:
    """A two-title VOD library, generation-striped, fed round-robin.

    Every node wants both contents; each content of the profile's full
    code length is striped into four generations (header and working
    set shrink four-fold, at the price of the per-generation LT
    overhead and a coupon-collector tail), and the origin cycles the
    catalogue strictly round-robin — the steady feed of a VOD head-end.
    """
    p = _profile(profile)
    return _cell(
        p,
        "striped_vod",
        content=CatalogueSpec(
            n_contents=2,
            k=p.k_default,
            demand="uniform",
            interests_per_node=2,
            generation_size=max(1, p.k_default // 4),
            source_schedule="round_robin",
        ),
    )


def sparse_rlnc(profile=None) -> ScenarioSpec:
    """The baseline workload under density-limited RLNC.

    Identical network, code length and channel to ``baseline``, but
    the scheme is ``sparse_rlnc``: each recoded combination touches at
    most ``density * k`` packets instead of RLNC's ``ln k + 20``.  The
    scheme entered the stack through a registry descriptor alone
    (:mod:`repro.schemes.builtin`) — no simulator or spec module knows
    it exists — which is exactly what this preset demonstrates.
    """
    p = _profile(profile)
    return _cell(p, "sparse_rlnc", "sparse_rlnc")


def large_overlay(profile=None) -> ScenarioSpec:
    """The N ≫ k scale-out regime.

    Eight times the profile's overlay at half its code length — the
    regime where per-round control flow (sampling, fault draws,
    delivery ordering) dominates the per-packet data plane.  At the
    paper profile this is an 8,000-node overlay.
    """
    p = _profile(profile)
    return _cell(
        p,
        "large_overlay",
        n_nodes=p.n_nodes * 8,
        k=max(1, p.k_default // 2),
    )


PRESETS: dict[str, Callable[..., ScenarioSpec]] = {
    "baseline": baseline,
    "multihop_lossy": multihop_lossy,
    "edge_cache": edge_cache,
    "churn": churn,
    "sensor_grid": sensor_grid,
    "smallworld_gossip": smallworld_gossip,
    "scalefree_p2p": scalefree_p2p,
    "powerline_multihop": powerline_multihop,
    "zipf_catalogue": zipf_catalogue,
    "edge_cache_catalogue": edge_cache_catalogue,
    "striped_vod": striped_vod,
    "sparse_rlnc": sparse_rlnc,
    "large_overlay": large_overlay,
}

#: The graph-structured subset (with ``baseline``, the ``topology`` group).
TOPOLOGY_PRESETS: tuple[str, ...] = (
    "powerline_multihop",
    "scalefree_p2p",
    "sensor_grid",
    "smallworld_gossip",
)

#: The catalogue subset (with ``baseline``, the ``content`` group).
CONTENT_PRESETS: tuple[str, ...] = (
    "zipf_catalogue",
    "edge_cache_catalogue",
    "striped_vod",
)


# -- figure grids ---------------------------------------------------------


def _fig7_cell(p, scheme: str, k: int) -> ScenarioSpec:
    """One Fig. 7 point, ``fig7:<scheme>:n<N>:k<k>``."""
    return _cell(p, f"fig7:{scheme}:n{p.n_nodes}:k{k}", scheme, k=k)


_FIG7_SCHEMES = ("wc", "ltnc", "rlnc")


def fig7a_convergence(profile=None) -> list[ScenarioSpec]:
    """Fig. 7a: WC, LTNC and RLNC at the profile's code length."""
    p = _profile(profile)
    return [_fig7_cell(p, scheme, p.k_default) for scheme in _FIG7_SCHEMES]


def fig7b_completion_time(profile=None) -> list[ScenarioSpec]:
    """Fig. 7b: WC, LTNC and RLNC over the profile's k sweep."""
    p = _profile(profile)
    return [
        _fig7_cell(p, scheme, k) for scheme in _FIG7_SCHEMES for k in p.k_sweep
    ]


def fig7c_overhead(profile=None) -> list[ScenarioSpec]:
    """Fig. 7c: LTNC over the k sweep, then WC and RLNC at its first k.

    The two baselines (``fig7c:<scheme>``) check exactly: their
    overhead is zero in every trial, so the bench runs them once.
    """
    p = _profile(profile)
    return [_fig7_cell(p, "ltnc", k) for k in p.k_sweep] + [
        _cell(p, f"fig7c:{scheme}", scheme, k=p.k_sweep[0])
        for scheme in ("wc", "rlnc")
    ]


def ablation_refinement(profile=None) -> list[ScenarioSpec]:
    """Algorithm 2 (refinement, §III-B3) on vs off."""
    p = _profile(profile)
    return [
        _cell(p, "refine-on", node_kwargs={"refine": True}),
        _cell(p, "refine-off", node_kwargs={"refine": False}),
    ]


def ablation_redundancy(profile=None) -> list[ScenarioSpec]:
    """Algorithm 3 (redundancy detection, §III-C1) as drop policy, on vs off.

    The binary feedback header check stays on in both arms (it is a
    transport feature); the ablated mechanism is the storage-side
    filtering of packets at reception and during decoding.
    """
    p = _profile(profile)
    return [
        _cell(p, "detect-on", node_kwargs={"detect_redundancy": True}),
        _cell(p, "detect-off", node_kwargs={"detect_redundancy": False}),
    ]


def ablation_feedback(profile=None) -> list[ScenarioSpec]:
    """Transport feedback none vs binary vs full (§III-C2)."""
    p = _profile(profile)
    return [
        _cell(p, f"feedback-{mode}", feedback=mode)
        for mode in ("none", "binary", "full")
    ]


def ablation_structure(profile=None) -> list[ScenarioSpec]:
    """LTNC vs random recoding of LT packets (``rndlt``, §V).

    Both decode by belief propagation.  The horizon is capped at
    10,000 rounds, because random recoding may stall outright.
    """
    p = _profile(profile)
    return [
        _cell(p, f"structure:{scheme}", scheme, max_rounds=10_000)
        for scheme in ("ltnc", "rndlt")
    ]


def aggressiveness_sweep(profile=None) -> list[ScenarioSpec]:
    """LTNC's recoding trigger (§IV-A), from eager to late."""
    p = _profile(profile)
    return [
        _cell(p, f"aggr-{trigger}", node_kwargs={"aggressiveness": trigger})
        for trigger in (0.01, 0.05, 0.25, 0.75)
    ]


def text_stats(profile=None) -> list[ScenarioSpec]:
    """The LTNC dissemination whose ``ltnc:*`` telemetry gives TXT1-TXT3."""
    p = _profile(profile)
    return [_cell(p, f"textstats:n{p.n_nodes}:k{p.k_default}")]


#: Figure grids by the name of the report their bench writes under
#: ``benchmarks/out/``; each factory gives the cells at a profile.
FIGURES: dict[str, Callable[..., list[ScenarioSpec]]] = {
    "fig7a_convergence": fig7a_convergence,
    "fig7b_completion_time": fig7b_completion_time,
    "fig7c_overhead": fig7c_overhead,
    "ablation_refinement": ablation_refinement,
    "ablation_redundancy": ablation_redundancy,
    "ablation_feedback": ablation_feedback,
    "ablation_structure": ablation_structure,
    "aggressiveness_sweep": aggressiveness_sweep,
    "text_stats": text_stats,
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(PRESETS))


def get_preset(name: str, profile=None) -> ScenarioSpec:
    """Instantiate a preset scenario at the given (or active) profile."""
    try:
        factory = PRESETS[name]
    except KeyError:
        raise SimulationError(
            f"unknown scenario {name!r}; expected one of {preset_names()}"
        ) from None
    return factory(profile)


def _preset_groups() -> dict[str, tuple[str, ...]]:
    """The groups of presets, by name."""
    return {
        "all": preset_names(),
        "topology": ("baseline",) + TOPOLOGY_PRESETS,
        "content": ("baseline",) + CONTENT_PRESETS,
        "schemes": tuple(f"baseline[{s}]" for s in available_schemes()),
    }


def scenario_groups(profile=None) -> dict[str, tuple[str, ...]]:
    """The named scenario groups and the scenario names each expands to.

    ``all`` is every preset; ``topology`` and ``content`` put the
    uniform ``baseline`` next to the graph-structured and catalogue
    presets; ``schemes`` races every registered scheme over the
    baseline workload (so registering a scheme enters it).  Each
    figure of :data:`FIGURES` names its cells at the given (or active)
    profile.
    """
    return {
        **_preset_groups(),
        **{
            name: tuple(cell.name for cell in grid(profile))
            for name, grid in FIGURES.items()
        },
    }


_SCHEMED = re.compile(r"(?P<preset>[^\[\]]+)\[(?P<scheme>[^\[\]]+)\]")


def get_scenario(name: str, profile=None) -> ScenarioSpec:
    """A preset, or ``<preset>[<scheme>]``, at the given (or active) profile.

    ``<preset>[<scheme>]`` is the preset re-pointed at the scheme with
    the descriptor's ``default_node_kwargs`` (LTNC's 1 % aggressiveness,
    sparse RLNC's density, ...) and named exactly that, so each
    scheme's trial seeds (derived from the name) stay distinct.
    """
    match = _SCHEMED.fullmatch(name)
    preset = match["preset"] if match else name
    if preset not in PRESETS:
        raise SimulationError(
            f"unknown scenario {name!r}; expected a preset "
            f"({', '.join(preset_names())}), a group "
            f"({', '.join([*_preset_groups(), *FIGURES])}) or "
            "'<preset>[<scheme>]'"
        )
    spec = PRESETS[preset](profile)
    if match is None:
        return spec
    scheme = get_scheme(match["scheme"])
    return spec.with_(
        name=name,
        scheme=scheme.name,
        node_kwargs=dict(scheme.default_node_kwargs),
    )


def expand_scenarios(names: Iterable[str], profile=None) -> list[ScenarioSpec]:
    """The specs a list of scenario names and groups stands for.

    Groups expand in place (see :func:`scenario_groups`), everything
    else goes through :func:`get_scenario`; a scenario named twice runs
    once, where it first appears (figure groups share identical cells,
    such as Fig. 7b's and 7c's LTNC points).
    """
    groups = _preset_groups()
    specs: dict[str, ScenarioSpec] = {}
    for name in names:
        if name in FIGURES:
            cells = FIGURES[name](profile)
        else:
            cells = [get_scenario(m, profile) for m in groups.get(name, (name,))]
        for cell in cells:
            specs.setdefault(cell.name, cell)
    return list(specs.values())
