"""The order contract: LTNC reads its sets in ascending id order.

Algorithm 1 picks uniformly inside a degree class and Algorithm 2
substitutes the least-frequent equivalent native, so neither needs an
iteration order; the reproduction still has to pick one, because an rng
index selects a *position* and equally rare natives tie.  Every such
read takes ascending id (round plan v2), never CPython's set layout,
which follows hash values and the set's insertion/deletion history.

* Relabelling every stored pid by a constant offset moves each pid's
  hash slot but keeps their ascending order, so a run's results and op
  totals must not move.
* The builder's degree-1 pool and the refiner's walk of an occurrence
  bucket come out ascending whatever order their items arrived in.
"""

import pytest

from repro.coding.packet import EncodedPacket
from repro.core.builder import build_packet
from repro.core.node import LtncNode
from repro.core.refiner import refine_packet
from repro.gf2.bitvec import BitVector
from repro.gossip.simulator import EpidemicSimulator

#: Added to every pid a node will assign: a prime, so pids land in other
#: hash-table slots at every table size.
PID_OFFSET = 1_000_003


def _run(scheme: str, n_nodes: int, k: int, seed: int, relabel: bool) -> dict:
    sim = EpidemicSimulator(
        scheme, n_nodes=n_nodes, k=k, seed=seed, max_rounds=4000
    )
    if relabel:
        for node in (*sim.sources, *sim.nodes):
            node.decoder.graph._next_pid = PID_OFFSET
    return sim.run().to_dict()


@pytest.mark.parametrize(
    ("scheme", "n_nodes", "k", "seed"),
    [("ltnc", 16, 64, 3), ("rndlt", 10, 16, 42)],
)
def test_pid_relabelling_changes_nothing(scheme, n_nodes, k, seed):
    # to_dict() holds every result counter, the convergence series and
    # the recode_ops/decode_ops totals.
    plain = _run(scheme, n_nodes, k, seed, relabel=False)
    assert plain["completed_fraction"] == 1.0
    assert _run(scheme, n_nodes, k, seed, relabel=True) == plain


class _LastSlot:
    """An rng whose uniform pick is always a pool's last position.

    The swap-pop then takes the pool from its end, so the picks, read
    backwards, are the pool in its stated order.
    """

    def integers(self, n: int) -> int:
        return n - 1


def _node(k: int, natives=(), pairs=()) -> LtncNode:
    node = LtncNode(0, k)
    for x in natives:
        node.receive(EncodedPacket.native(k, x, None))
    for pair in pairs:
        node.receive(EncodedPacket(BitVector.from_indices(k, pair), None))
    return node


def test_builder_pool_is_ascending():
    node = _node(128, natives=(100, 3, 64))
    built = build_packet(
        3, node.decoder.graph, node.degree_index, _LastSlot()
    )
    picks = [item for degree, item in built.picked]
    assert picks[::-1] == [3, 64, 100]


def test_refiner_walks_a_bucket_in_ascending_order():
    # Native 10 is connected to 3, 64 and 100 through stored degree-2
    # packets.  All three are less frequent than 10 and equally rare,
    # so Algorithm 2 may take any of them; the contract takes the lowest.
    k = 128
    node = _node(k, pairs=((10, 3), (10, 64), (10, 100)))
    occurrences = node.occurrences
    occurrences.record_sent(set(range(k)))
    occurrences.record_sent({100, 3, 64})
    occurrences.record_sent({10})
    occurrences.record_sent({10})
    refined = refine_packet(
        {10}, None, node.components, occurrences, node.decoder.graph
    )
    assert refined.substitutions == [(10, 3)]
    assert refined.support == {3}
