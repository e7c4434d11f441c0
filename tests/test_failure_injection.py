"""Failure injection: loss, duplication and churn during dissemination.

Rateless network codes are supposed to absorb all three faults without
protocol changes — any future encoded packet replaces a lost one,
duplicates are redundancy the detectors already handle, and a restarted
node simply starts collecting again.  These tests pin the claim down
for every scheme.
"""

import numpy as np
import pytest

from repro.coding.packet import make_content
from repro.errors import SimulationError
from repro.gossip import ChannelModel, EpidemicSimulator, run_dissemination


def test_channel_model_validation():
    with pytest.raises(SimulationError):
        ChannelModel(loss_rate=1.5)
    with pytest.raises(SimulationError):
        ChannelModel(duplicate_rate=-0.1)
    with pytest.raises(SimulationError):
        ChannelModel(churn_rate=2.0)


@pytest.mark.parametrize("scheme", ["wc", "rlnc", "ltnc"])
def test_converges_under_packet_loss(scheme):
    result = run_dissemination(
        scheme,
        n_nodes=10,
        k=24,
        seed=20,
        channel=ChannelModel(loss_rate=0.2),
        max_rounds=20_000,
    )
    assert result.all_complete
    assert result.lost_transfers > 0


@pytest.mark.parametrize("scheme", ["wc", "rlnc", "ltnc"])
def test_converges_under_duplication(scheme):
    result = run_dissemination(
        scheme,
        n_nodes=10,
        k=24,
        seed=21,
        channel=ChannelModel(duplicate_rate=0.3),
        max_rounds=20_000,
    )
    assert result.all_complete
    assert result.duplicated_transfers > 0


@pytest.mark.parametrize("scheme", ["rlnc", "ltnc"])
def test_converges_under_churn(scheme):
    result = run_dissemination(
        scheme,
        n_nodes=10,
        k=24,
        seed=22,
        channel=ChannelModel(churn_rate=0.05),
        max_rounds=20_000,
    )
    assert result.all_complete
    assert result.churn_events > 0


def test_content_intact_under_combined_faults():
    k, m = 16, 8
    content = make_content(k, m, rng=23)
    sim = EpidemicSimulator(
        "ltnc",
        n_nodes=8,
        k=k,
        content=content,
        seed=24,
        channel=ChannelModel(
            loss_rate=0.1, duplicate_rate=0.1, churn_rate=0.02
        ),
        max_rounds=20_000,
    )
    result = sim.run()
    assert result.all_complete
    for node in sim.nodes:
        assert np.array_equal(node.decoded_content(), content)


def test_loss_slows_but_does_not_break():
    clean = run_dissemination(
        "ltnc", n_nodes=10, k=32, seed=25, max_rounds=20_000
    )
    lossy = run_dissemination(
        "ltnc",
        n_nodes=10,
        k=32,
        seed=25,
        channel=ChannelModel(loss_rate=0.3),
        max_rounds=20_000,
    )
    assert clean.all_complete and lossy.all_complete
    assert (
        lossy.average_completion_round() > clean.average_completion_round()
    )


def test_transfer_accounting_identity_with_losses():
    result = run_dissemination(
        "ltnc",
        n_nodes=8,
        k=24,
        seed=26,
        channel=ChannelModel(loss_rate=0.25),
        max_rounds=20_000,
    )
    assert result.data_transfers == (
        result.useful_transfers
        + result.redundant_transfers
        + result.lost_transfers
    )


def test_churned_node_counters_are_preserved():
    result = run_dissemination(
        "ltnc",
        n_nodes=8,
        k=32,
        seed=28,
        channel=ChannelModel(churn_rate=0.1),
        max_rounds=20_000,
    )
    assert result.all_complete
    assert result.churn_events > 0
    assert result.decode_ops.get("bp_edge") > 0
