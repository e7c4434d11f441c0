"""Direct unit tests for the channel fault models.

The channel was previously exercised only through whole simulator runs
(test_failure_injection); these tests pin its edge cases down in
isolation: zero-rate channels must consume no randomness, per-receiver
loss must override the base rate exactly, and churn phases must apply
on their half-open round windows.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.gossip.channel import ChannelModel, ChurnPhase, HeterogeneousChannel


def _state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


def test_zero_rate_channel_never_fires_and_draws_nothing():
    channel = ChannelModel()
    rng = np.random.default_rng(0)
    before = _state(rng)
    for round_index in range(50):
        assert not channel.loses(rng, 0, 1)
        assert not channel.duplicates(rng)
        assert not channel.churns(rng, round_index)
    # A perfect channel must not perturb the fault rng stream: adding
    # faults to a scenario later must not reshuffle unrelated draws.
    assert _state(rng) == before


def test_certain_loss_always_fires():
    channel = ChannelModel(loss_rate=1.0)
    rng = np.random.default_rng(1)
    assert all(channel.loses(rng) for _ in range(20))


def test_channel_rates_validated():
    with pytest.raises(SimulationError):
        ChannelModel(loss_rate=-0.01)
    with pytest.raises(SimulationError):
        HeterogeneousChannel(node_loss=(0.1, 1.2))


def test_heterogeneous_loss_overrides_per_receiver():
    channel = HeterogeneousChannel(loss_rate=0.5, node_loss=(0.0, 1.0, 0.5))
    rng = np.random.default_rng(2)
    assert channel.loss_for(receiver=0) == 0.0
    assert channel.loss_for(receiver=1) == 1.0
    # Receivers beyond the tuple and the out-of-overlay source (-1)
    # fall back to the base rate.
    assert channel.loss_for(receiver=7) == 0.5
    assert channel.loss_for(receiver=-1) == 0.5
    assert not any(channel.loses(rng, 5, 0) for _ in range(50))
    assert all(channel.loses(rng, 5, 1) for _ in range(50))


def test_churn_phase_window_is_half_open():
    phase = ChurnPhase(start=10, end=20, rate=0.5)
    assert not phase.covers(9)
    assert phase.covers(10)
    assert phase.covers(19)
    assert not phase.covers(20)
    open_ended = ChurnPhase(start=5, end=None, rate=0.5)
    assert open_ended.covers(1_000_000)
    assert not open_ended.covers(4)


def test_churn_phase_validation():
    with pytest.raises(SimulationError):
        ChurnPhase(start=-1, end=None, rate=0.1)
    with pytest.raises(SimulationError):
        ChurnPhase(start=5, end=5, rate=0.1)
    with pytest.raises(SimulationError):
        ChurnPhase(start=0, end=10, rate=1.5)


def test_scheduled_churn_first_matching_phase_wins():
    channel = HeterogeneousChannel(
        churn_rate=0.01,
        churn_phases=(
            ChurnPhase(start=10, end=20, rate=1.0),
            ChurnPhase(start=15, end=30, rate=0.0),
        ),
    )
    assert channel.churn_rate_at(5) == 0.01
    assert channel.churn_rate_at(10) == 1.0
    assert channel.churn_rate_at(17) == 1.0  # first phase still covers
    assert channel.churn_rate_at(25) == 0.0
    assert channel.churn_rate_at(40) == 0.01
    rng = np.random.default_rng(3)
    assert all(channel.churns(rng, r) for r in range(10, 20))


def test_base_channel_ignores_link_and_round_context():
    channel = ChannelModel(loss_rate=0.5, churn_rate=0.5)
    assert channel.loss_for(3, 4) == 0.5
    assert channel.churn_rate_at(123) == 0.5
