"""Unit tests for the dissemination metrics container."""

import pytest

from repro.errors import SimulationError
from repro.gossip.metrics import DisseminationResult


def _result(**kwargs):
    base = DisseminationResult("ltnc", n_nodes=4, k=10)
    for key, value in kwargs.items():
        setattr(base, key, value)
    return base


def test_initial_state():
    result = _result()
    assert result.completed_count == 0
    assert not result.all_complete
    assert result.completed_fraction() == 0.0
    assert result.abort_rate() == 0.0


def test_completion_stats():
    result = _result(completion_rounds={0: 10, 1: 20, 2: 30, 3: 40})
    assert result.all_complete
    assert result.average_completion_round() == 25.0
    assert result.completion_percentile(50) == 25.0
    assert result.completion_percentile(100) == 40.0


def test_stats_require_completions():
    result = _result()
    with pytest.raises(SimulationError):
        result.average_completion_round()
    with pytest.raises(SimulationError):
        result.completion_percentile(50)
    with pytest.raises(SimulationError):
        result.overhead()


def test_overhead_accounting():
    result = _result(
        completion_rounds={0: 5, 1: 7},
        data_until_complete={0: 12, 1: 14},
    )
    # Extra transfers: (12-10) and (14-10) over k=10 -> mean 3/10.
    assert result.overhead() == pytest.approx(0.3)


def test_overhead_zero_when_exactly_k():
    result = _result(
        completion_rounds={0: 5},
        data_until_complete={0: 10},
    )
    assert result.overhead() == 0.0


def test_abort_rate():
    result = _result(sessions=100, aborted=25)
    assert result.abort_rate() == 0.25


def test_record_round_series():
    result = _result()
    result.completion_rounds[0] = 0
    result.record_round(0)
    result.completion_rounds[1] = 1
    result.completion_rounds[2] = 1
    result.record_round(1)
    assert result.rounds == 2
