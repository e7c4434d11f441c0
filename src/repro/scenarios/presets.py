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
factory and registering it in :data:`PRESETS`; everything downstream
(CLI, runner, benches, golden tests) picks it up by name.

Sweeps name their scenarios with :func:`expand_scenarios`, which
accepts, besides preset names, the groups of :func:`scenario_groups`
(``all``, ``topology``, ``content``, ``schemes``) and
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
from repro.schemes import LTNC_AGGRESSIVENESS, available_schemes, get_scheme
from repro.topology.spec import TopologySpec

__all__ = [
    "PRESETS",
    "TOPOLOGY_PRESETS",
    "CONTENT_PRESETS",
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
    "expand_scenarios",
    "get_preset",
    "get_scenario",
    "preset_names",
    "scenario_groups",
]

#: §IV-A: aggressiveness minimising completion time, "typically 1 %".
_LTNC_NODE_KWARGS: dict[str, object] = {
    "aggressiveness": LTNC_AGGRESSIVENESS
}


def _profile(profile=None):
    if profile is not None:
        return profile
    # Imported lazily: repro.experiments imports repro.scenarios for
    # its parallel map, so a module-level import here would be a cycle.
    from repro.experiments.scale import current_profile

    return current_profile()


def baseline(profile=None) -> ScenarioSpec:
    """The paper's dissemination setup at the active profile's size."""
    p = _profile(profile)
    return ScenarioSpec(
        name="baseline",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        node_kwargs=dict(_LTNC_NODE_KWARGS),
    )


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
    return ScenarioSpec(
        name="multihop_lossy",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        node_loss=node_loss,
        node_kwargs=dict(_LTNC_NODE_KWARGS),
    )


def edge_cache(profile=None) -> ScenarioSpec:
    """Replicated origins plus pre-warmed caches at half the nodes."""
    p = _profile(profile)
    return ScenarioSpec(
        name="edge_cache",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        n_sources=2,
        warm_fraction=0.5,
        warm_packets=p.k_default // 2,
        node_kwargs=dict(_LTNC_NODE_KWARGS),
    )


def churn(profile=None) -> ScenarioSpec:
    """Background churn with a ten-fold storm early in the epoch."""
    p = _profile(profile)
    return ScenarioSpec(
        name="churn",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        churn_rate=0.01,
        churn_phases=(ChurnPhase(start=20, end=60, rate=0.1),),
        node_kwargs=dict(_LTNC_NODE_KWARGS),
    )


def sensor_grid(profile=None) -> ScenarioSpec:
    """A 2-D sensor lattice: neighbourhood gossip, per-hop erasures."""
    p = _profile(profile)
    return ScenarioSpec(
        name="sensor_grid",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        sampler="topology",
        topology=TopologySpec(
            graph="grid2d",
            loss_mode="hop",
            per_hop_loss=0.02,
            root=0,
        ),
        node_kwargs=dict(_LTNC_NODE_KWARGS),
    )


def smallworld_gossip(profile=None) -> ScenarioSpec:
    """Watts–Strogatz neighbourhood gossip with long-range escapes."""
    p = _profile(profile)
    return ScenarioSpec(
        name="smallworld_gossip",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        sampler="topology",
        topology=TopologySpec(
            graph="watts_strogatz",
            params={"k_nearest": 4, "rewire_p": 0.1},
            escape=0.05,
        ),
        node_kwargs=dict(_LTNC_NODE_KWARGS),
    )


def scalefree_p2p(profile=None) -> ScenarioSpec:
    """Barabási–Albert scale-free overlay: hub-mediated dissemination."""
    p = _profile(profile)
    return ScenarioSpec(
        name="scalefree_p2p",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        sampler="topology",
        topology=TopologySpec(
            graph="barabasi_albert",
            params={"m_attach": 2},
        ),
        node_kwargs=dict(_LTNC_NODE_KWARGS),
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
    return ScenarioSpec(
        name="powerline_multihop",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        sampler="topology",
        topology=TopologySpec(
            graph="line",
            loss_mode="hop",
            per_hop_loss=0.03,
            root=0,
        ),
        node_kwargs=dict(_LTNC_NODE_KWARGS),
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
    return ScenarioSpec(
        name="zipf_catalogue",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        content=CatalogueSpec(
            n_contents=4,
            k=max(1, p.k_default // 2),
            demand="zipf",
            zipf_s=1.0,
            interests_per_node=2,
        ),
        node_kwargs=dict(_LTNC_NODE_KWARGS),
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
    return ScenarioSpec(
        name="edge_cache_catalogue",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
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
        node_kwargs=dict(_LTNC_NODE_KWARGS),
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
    return ScenarioSpec(
        name="striped_vod",
        scheme="ltnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        content=CatalogueSpec(
            n_contents=2,
            k=p.k_default,
            demand="uniform",
            interests_per_node=2,
            generation_size=max(1, p.k_default // 4),
            source_schedule="round_robin",
        ),
        node_kwargs=dict(_LTNC_NODE_KWARGS),
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
    return ScenarioSpec(
        name="sparse_rlnc",
        scheme="sparse_rlnc",
        n_nodes=p.n_nodes,
        k=p.k_default,
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        node_kwargs={"density": 0.1},
    )


def large_overlay(profile=None) -> ScenarioSpec:
    """The N ≫ k scale-out regime.

    Eight times the profile's overlay at half its code length — the
    regime where per-round control flow (sampling, fault draws,
    delivery ordering) dominates the per-packet data plane.  At the
    paper profile this is an 8,000-node overlay.
    """
    p = _profile(profile)
    return ScenarioSpec(
        name="large_overlay",
        scheme="ltnc",
        n_nodes=p.n_nodes * 8,
        k=max(1, p.k_default // 2),
        source_pushes=p.source_pushes,
        max_rounds=p.max_rounds,
        node_kwargs=dict(_LTNC_NODE_KWARGS),
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


def scenario_groups() -> dict[str, tuple[str, ...]]:
    """The named scenario groups and the scenario names each expands to.

    ``all`` is every preset; ``topology`` and ``content`` put the
    uniform ``baseline`` next to the graph-structured and catalogue
    presets; ``schemes`` races every registered scheme over the
    baseline workload (so registering a scheme enters it).
    """
    return {
        "all": preset_names(),
        "topology": ("baseline",) + TOPOLOGY_PRESETS,
        "content": ("baseline",) + CONTENT_PRESETS,
        "schemes": tuple(f"baseline[{s}]" for s in available_schemes()),
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
            f"({', '.join(scenario_groups())}) or '<preset>[<scheme>]'"
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
    once, where it first appears.
    """
    groups = scenario_groups()
    expanded = [member for name in names for member in groups.get(name, (name,))]
    return [get_scenario(name, profile) for name in dict.fromkeys(expanded)]
