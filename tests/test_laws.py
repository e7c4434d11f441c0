"""The declared counter laws: every real run obeys them, and each one bites.

Each result type declares its counters and the laws over them
(:mod:`repro.gossip.driver`); the run driver ends every run with the
result's ``check()``.  For every result type × declared law:

* a real finished run passes ``check()``;
* a copy with one counter nudged so that exactly that law breaks
  raises :class:`~repro.errors.SimulationError` naming the law.

``tests/oracles.py:assert_conserved`` stays the independent oracle of
the session laws; it is cross-checked on the same epidemic run.
"""

import copy
import functools
import re

import pytest

from repro.errors import SimulationError
from repro.experiments.scale import PROFILES
from repro.gossip.driver import result_types
from repro.gossip.wireless import WirelessSimulator
from repro.scenarios import ScenarioSpec
from repro.scenarios.presets import get_preset
from repro.schemes import get_scheme
from repro.topology.generators import random_geometric

from oracles import assert_conserved


@functools.cache
def _finished(kind: str):
    """One real finished run per result kind, with every counter moving."""
    if kind == "epidemic":
        spec = ScenarioSpec(
            name="laws-epidemic",
            scheme="ltnc",
            n_nodes=10,
            k=16,
            loss_rate=0.1,
            duplicate_rate=0.1,
            node_kwargs=dict(get_scheme("ltnc").default_node_kwargs),
        )
        return spec.run(11)
    if kind == "catalogue":
        return get_preset("edge_cache_catalogue", PROFILES["quick"]).run(11)
    return WirelessSimulator(
        "ltnc",
        random_geometric(10, radius=0.4, rng=3),
        16,
        snoop=True,
        seed=11,
        max_rounds=6000,
    ).run()


#: Per-completion law -> (dict field, breaking value) at one completed key.
_BREAK_AT = {
    "0 <= completion_round": ("completion_rounds", lambda r: -1),
    "completion_round <= rounds": ("completion_rounds", lambda r: r.rounds + 1),
    "data_until_complete >= k": ("data_until_complete", lambda r: 0),
}


def _value(result, name: str) -> int:
    value = getattr(result, name)
    return sum(value.values()) if isinstance(value, dict) else value


def _bump(result, name: str, amount: int) -> None:
    value = getattr(result, name)
    if isinstance(value, dict):
        first = next(iter(value))
        value[first] += amount
    else:
        setattr(result, name, value + amount)


def _broken_exactly(result, law: str):
    """A copy of *result* with one counter nudged to break only *law*."""
    if law in type(result).COMPLETION_LAWS:
        nudged = copy.deepcopy(result)
        field, value = _BREAK_AT[law]
        getattr(nudged, field)[next(iter(nudged.completion_rounds))] = value(nudged)
        return nudged
    left, op, right = re.split(r" (<=|=) ", law)
    lhs, rhs = left.split(" + "), right.split(" + ")
    slack = sum(_value(result, t) for t in rhs) - sum(_value(result, t) for t in lhs)
    # Raise a term of the side that must stay small (either side of "=").
    for name in lhs + rhs if op == "=" else lhs:
        nudged = copy.deepcopy(result)
        _bump(nudged, name, abs(slack) + 1)
        if len(nudged.broken_laws()) == 1:
            return nudged
    raise AssertionError(f"no single counter breaks only {law!r}")


CASES = [
    (kind, law)
    for kind, cls in sorted(result_types().items())
    for law in cls.LAWS + cls.COMPLETION_LAWS
]


@pytest.mark.parametrize("kind, law", CASES)
def test_real_run_passes_and_one_nudge_breaks_exactly_that_law(kind, law):
    result = _finished(kind)
    assert result.all_complete
    result.check()
    nudged = _broken_exactly(result, law)
    with pytest.raises(SimulationError, match=re.escape(law)):
        nudged.check()
    (message,) = nudged.broken_laws()
    assert message.startswith(law)


@pytest.mark.parametrize("kind", sorted(result_types()))
def test_law_terms_are_declared(kind):
    cls = result_types()[kind]
    fields = {c.field for c in cls.COUNTERS}
    columns = set(_finished(kind).completion_columns())
    for laws, names in ((cls.LAWS, fields), (cls.COMPLETION_LAWS, columns)):
        for law in laws:
            assert set(re.findall(r"[a-z_]+", law)) <= names, law


def test_laws_agree_with_the_independent_oracle():
    result = _finished("epidemic")
    assert_conserved(result)
    assert result.lost_transfers and result.duplicated_transfers
    catalogue = _finished("catalogue")
    assert catalogue.cache_served and catalogue.aborted


def test_run_raises_when_a_law_breaks(monkeypatch):
    from repro.gossip.simulator import EpidemicSimulator

    step = EpidemicSimulator._step

    def leaky_step(sim, round_index):
        step(sim, round_index)
        sim.result.recoded_packets += 1

    monkeypatch.setattr(EpidemicSimulator, "_step", leaky_step)
    with pytest.raises(SimulationError, match="recoded_packets = sessions"):
        EpidemicSimulator("wc", 4, 8, seed=1).run()
