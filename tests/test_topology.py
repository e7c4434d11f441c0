"""Unit tests for the repro.topology subsystem."""

import pytest

from repro.errors import SimulationError
from repro.gossip.channel import ChannelModel, ChurnPhase, HeterogeneousChannel
from repro.topology import (
    Graph,
    TopologyChannel,
    TopologySampler,
    TopologySpec,
    barabasi_albert,
    edge_tree,
    generator_names,
    grid2d,
    line,
    make_graph,
    random_geometric,
    repair_connectivity,
    ring,
    watts_strogatz,
)


# -- graph core ---------------------------------------------------------
def test_graph_normalises_edges():
    g = Graph(4, [(2, 1), (1, 2), (0, 1)])
    assert g.n_edges == 2
    assert g.edges() == ((0, 1), (1, 2))
    assert g.neighbors(1) == [0, 2]
    assert g.degree(3) == 0
    assert g.average_degree() == pytest.approx(1.0)


def test_graph_rejects_bad_edges():
    with pytest.raises(SimulationError):
        Graph(3, [(0, 0)])
    with pytest.raises(SimulationError):
        Graph(3, [(0, 5)])
    with pytest.raises(SimulationError):
        Graph(0, [])


def test_graph_hops_paths_and_components():
    g = Graph(6, [(0, 1), (1, 2), (3, 4)])
    assert g.hops_from(0) == [0, 1, 2, -1, -1, -1]
    assert g.hop_distance(2, 0) == 2
    assert g.hop_distance(0, 3) == -1
    assert g.components() == [[0, 1, 2], [3, 4], [5]]
    assert not g.is_connected()
    with pytest.raises(SimulationError):
        g.eccentricity(0)


def test_graph_neighbors_are_copies():
    g = ring(5)
    g.neighbors(0).append(99)
    assert g.neighbors(0) == [1, 4]


def test_repair_connectivity_splices_all_components():
    edges = [(0, 1), (2, 3), (4, 5)]
    extra = repair_connectivity(6, edges)
    g = Graph(6, list(edges) + extra)
    assert g.is_connected()
    # Deterministic and rng-free: same input, same splice edges.
    assert extra == repair_connectivity(6, edges)
    assert repair_connectivity(4, [(0, 1), (1, 2), (2, 3)]) == []


# -- generators ---------------------------------------------------------
def test_generator_registry_is_complete():
    assert generator_names() == (
        "barabasi_albert",
        "edge_tree",
        "grid2d",
        "line",
        "random_geometric",
        "ring",
        "watts_strogatz",
    )
    with pytest.raises(SimulationError):
        make_graph("escher", 8)
    with pytest.raises(SimulationError):
        make_graph("line", 8, nonsense=1)  # bad params -> friendly error


@pytest.mark.parametrize("name", generator_names())
@pytest.mark.parametrize("n_nodes", [2, 5, 12, 33])
def test_generators_connected_and_seed_deterministic(name, n_nodes):
    if name == "watts_strogatz" and n_nodes == 2:
        pytest.skip("ws needs >= 3 nodes")
    a = make_graph(name, n_nodes, rng=7)
    b = make_graph(name, n_nodes, rng=7)
    assert a == b
    assert a.is_connected()
    assert a.n_nodes == n_nodes
    for i in range(n_nodes):
        for j in a.neighbors(i):
            assert i != j
            assert i in a.neighbors(j)


def test_line_ring_grid_tree_shapes():
    assert line(5).edges() == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert ring(5).n_edges == 5
    assert ring(2).n_edges == 1  # degenerate ring is a single link
    g = grid2d(9)  # 3x3
    assert g.degree(4) == 4  # centre of the lattice
    assert g.eccentricity(0) == 4  # corner-to-corner Manhattan distance
    t = edge_tree(13, branching=3)
    assert t.degree(0) == 3
    assert t.hops_from(0) == [0] + [1] * 3 + [2] * 9


def test_watts_strogatz_rewires_and_repairs():
    base = watts_strogatz(24, k_nearest=4, rewire_p=0.0, rng=0)
    assert base.n_edges == 48  # pristine ring lattice: n * k / 2
    rewired = watts_strogatz(24, k_nearest=4, rewire_p=0.6, rng=0)
    assert rewired.is_connected()
    assert rewired != base
    with pytest.raises(SimulationError):
        watts_strogatz(24, k_nearest=1)
    with pytest.raises(SimulationError):
        watts_strogatz(4, k_nearest=6)


def test_barabasi_albert_grows_hubs():
    g = barabasi_albert(60, m_attach=2, rng=1)
    degrees = sorted(g.degree(i) for i in range(60))
    assert degrees[0] == 2  # every newcomer attaches m edges
    assert degrees[-1] >= 8  # preferential attachment grows hubs
    with pytest.raises(SimulationError):
        barabasi_albert(4, m_attach=0)
    # m_attach clamps to n_nodes - 1: a 4-node BA at m=4 is the clique.
    assert barabasi_albert(4, m_attach=4, rng=0).n_edges == 6


def test_random_geometric_keeps_positions_and_radius():
    g = random_geometric(20, radius=0.01, rng=3)
    assert g.is_connected()
    assert g.positions.shape == (20, 2)
    assert g.radius > 0.01  # growth repair kicked in


# -- sampler ------------------------------------------------------------
def test_topology_sampler_validation():
    with pytest.raises(SimulationError):
        TopologySampler(Graph(1, []))
    with pytest.raises(SimulationError):
        TopologySampler(ring(5), escape=1.5)


def test_topology_sampler_prefers_neighbourhood():
    g = ring(10)
    sampler = TopologySampler(g, escape=0.0, rng=0)
    for node in range(10):
        for _ in range(20):
            (peer,) = sampler.peers(node, 1, 0)
            assert peer in g.neighbors(node)


def test_topology_sampler_overflows_gracefully():
    # Request more peers than the neighbourhood holds: the rest of the
    # membership fills in, still without self or duplicates.
    sampler = TopologySampler(line(8), escape=0.0, rng=1)
    for node in range(8):
        peers = sampler.peers(node, 7, 0)
        assert len(peers) == len(set(peers)) == 7
        assert node not in peers


def test_topology_sampler_escape_reaches_far_nodes():
    g = line(30)
    near = TopologySampler(g, escape=0.0, rng=2)
    far = TopologySampler(g, escape=1.0, rng=2)
    assert all(p in (0, 2) for _ in range(50) for p in near.peers(1, 1, 0))
    distances = {abs(far.peers(1, 1, 0)[0] - 1) for _ in range(100)}
    assert max(distances) > 2  # escapes jump beyond the neighbourhood


# -- channel ------------------------------------------------------------
def test_topology_channel_validation():
    with pytest.raises(SimulationError):
        TopologyChannel(graph=None)
    with pytest.raises(SimulationError):
        TopologyChannel(graph=ring(5), per_hop_loss=2.0)
    with pytest.raises(SimulationError):
        TopologyChannel(graph=ring(5), root=5)


def test_topology_channel_hop_loss_compounds():
    channel = TopologyChannel(graph=line(6), per_hop_loss=0.1)
    assert channel.loss_for(0, 1) == pytest.approx(0.1)
    assert channel.loss_for(0, 3) == pytest.approx(1 - 0.9**3)
    assert channel.loss_for(-1, 5) == pytest.approx(1 - 0.9**5)  # source at root
    assert channel.loss_for(2, 2) == 0.0
    assert TopologyChannel(graph=line(6)).loss_for(0, 5) == 0.0


def test_topology_channel_inherits_churn_and_node_loss():
    channel = TopologyChannel(
        graph=ring(4),
        per_hop_loss=0.0,
        node_loss=(0.0, 0.5, 0.0, 0.0),
        churn_phases=(ChurnPhase(start=2, end=4, rate=0.9),),
    )
    assert channel.loss_for(0, 1) == pytest.approx(0.5)
    assert channel.churn_rate_at(3) == 0.9
    assert channel.churn_rate_at(10) == 0.0


# -- declarative spec ---------------------------------------------------
def test_topology_spec_validation():
    with pytest.raises(SimulationError):
        TopologySpec(graph="escher")
    with pytest.raises(SimulationError, match=r"\('none', 'hop'\)"):
        TopologySpec(loss_mode="weight")
    with pytest.raises(SimulationError):
        TopologySpec(escape=-0.1)
    with pytest.raises(SimulationError):
        TopologySpec(per_hop_loss=1.1)
    with pytest.raises(SimulationError):
        TopologySpec(root=-1)
    with pytest.raises(SimulationError):
        TopologySpec(graph="line", root=9).build_graph(4)


def test_topology_spec_roundtrip_and_build():
    spec = TopologySpec(
        graph="barabasi_albert",
        params={"m_attach": 3},
        escape=0.25,
        loss_mode="hop",
        per_hop_loss=0.05,
    )
    assert TopologySpec.from_dict(spec.to_dict()) == spec
    graph, sampler, channel = spec.build(20, ChannelModel(), seed=11)
    graph2, sampler2, channel2 = spec.build(20, ChannelModel(), seed=11)
    assert graph == graph2 == sampler.graph
    assert isinstance(channel, TopologyChannel)
    assert channel.per_hop_loss == 0.05
    assert sampler.escape == 0.25


def test_topology_spec_loss_mode_none_keeps_base_channel():
    spec = TopologySpec(graph="ring")
    base = HeterogeneousChannel(node_loss=(0.1, 0.2))
    _, _, channel = spec.build(2, base, seed=0)
    assert channel is base
