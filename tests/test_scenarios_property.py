"""Property-based tests for scenario serialisation and the runner.

Two contracts:

* any :class:`ScenarioSpec` — however exotic — round-trips losslessly
  through its dict and JSON serialisations (hypothesis-generated);
* a :class:`FleetRunner` with ``n_workers=4`` produces bitwise-identical
  aggregated JSON to the plain-loop oracle (``tests/oracles.py``) for
  the same master seed.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.content.spec import CatalogueSpec
from repro.gossip.channel import ChurnPhase
from repro.scenarios import (
    TOPOLOGY_PRESETS,
    FleetRunner,
    ScenarioSpec,
    get_preset,
)
from repro.schemes import get_scheme
from repro.topology.spec import TopologySpec
from repro.experiments.scale import PROFILES

from oracles import serial_grid

_probability = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_-0123456789", min_size=1, max_size=16
)


@st.composite
def churn_phases(draw):
    start = draw(st.integers(min_value=0, max_value=500))
    length = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=500)))
    end = None if length is None else start + length
    return ChurnPhase(start=start, end=end, rate=draw(_probability))


@st.composite
def topology_specs(draw, n_nodes):
    graph = draw(
        st.sampled_from(["line", "ring", "grid2d", "edge_tree", "barabasi_albert"])
    )
    return TopologySpec(
        graph=graph,
        escape=draw(_probability),
        loss_mode=draw(st.sampled_from(["none", "hop", "weight"])),
        per_hop_loss=draw(_probability),
        root=draw(st.integers(min_value=0, max_value=n_nodes - 1)),
    )


@st.composite
def catalogue_specs(draw):
    n_contents = draw(st.integers(min_value=1, max_value=5))
    cache_policy = draw(st.sampled_from(["none", "lru", "lfu", "pin"]))
    pin_contents: tuple[str, ...] = ()
    if cache_policy == "pin":
        picks = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_contents - 1),
                min_size=1,
                max_size=n_contents,
                unique=True,
            )
        )
        pin_contents = tuple(f"c{i}" for i in sorted(picks))
    return CatalogueSpec(
        n_contents=n_contents,
        k=draw(st.integers(min_value=0, max_value=64)),
        generation_size=draw(st.integers(min_value=0, max_value=8)),
        demand=draw(st.sampled_from(["zipf", "uniform"])),
        zipf_s=draw(
            st.floats(
                min_value=0.0,
                max_value=3.0,
                allow_nan=False,
                allow_infinity=False,
            )
        ),
        interests_per_node=draw(st.integers(min_value=1, max_value=n_contents)),
        cache_policy=cache_policy,
        cache_fraction=draw(_probability),
        cache_capacity=(
            0
            if cache_policy == "none"
            else draw(st.integers(min_value=1, max_value=64))
        ),
        pin_contents=pin_contents,
        source_schedule=draw(st.sampled_from(["popularity", "round_robin"])),
    )


def _knob_values(knob):
    """A strategy of values satisfying one scheme knob's schema."""
    if knob.kind is bool:
        return st.booleans()
    if knob.kind is int:
        lo = int(knob.minimum) if knob.minimum is not None else 1
        if knob.exclusive_min:
            lo += 1
        hi = int(knob.maximum) if knob.maximum is not None else max(lo, 64)
        return st.integers(min_value=lo, max_value=hi)
    lo = knob.minimum if knob.minimum is not None else 0.0
    hi = knob.maximum if knob.maximum is not None else max(lo, 1.0)
    return st.floats(
        min_value=lo,
        max_value=hi,
        exclude_min=knob.exclusive_min,
        allow_nan=False,
        allow_infinity=False,
    )


@st.composite
def node_kwargs_for(draw, scheme):
    """Spec-valid node_kwargs drawn from the scheme's knob schema."""
    knobs = get_scheme(scheme).knobs
    if not knobs:
        return {}
    picks = draw(
        st.lists(
            st.sampled_from(knobs),
            unique_by=lambda knob: knob.name,
            max_size=3,
        )
    )
    return {knob.name: draw(_knob_values(knob)) for knob in picks}


@st.composite
def scenario_specs(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=64))
    node_loss = draw(
        st.one_of(
            st.just(()),
            st.tuples(*([_probability] * n_nodes)),
        )
    )
    content = draw(st.one_of(st.none(), catalogue_specs()))
    if content is not None:
        # Catalogue workloads: binary/none transport, no prewarm.
        feedback = draw(st.sampled_from(["none", "binary"]))
        warm_fraction, warm_packets = 0.0, 0
        scheme = "ltnc" if content.generation_size else draw(
            st.sampled_from(["wc", "rlnc", "ltnc", "rndlt"])
        )
    else:
        scheme = draw(st.sampled_from(["wc", "rlnc", "ltnc", "rndlt"]))
        feedbacks = ["none", "binary"]
        if get_scheme(scheme).supports_full_feedback:
            feedbacks.append("full")
        feedback = draw(st.sampled_from(feedbacks))
        warm_fraction = draw(_probability)
        warm_packets = draw(st.integers(min_value=0, max_value=128))
    return ScenarioSpec(
        name=draw(_names),
        scheme=scheme,
        n_nodes=n_nodes,
        k=draw(st.integers(min_value=1, max_value=256)),
        feedback=feedback,
        source_pushes=draw(st.integers(min_value=1, max_value=8)),
        n_sources=draw(st.integers(min_value=1, max_value=4)),
        max_rounds=draw(st.integers(min_value=1, max_value=10**6)),
        loss_rate=draw(_probability),
        duplicate_rate=draw(_probability),
        churn_rate=draw(_probability),
        node_loss=node_loss,
        churn_phases=tuple(
            draw(st.lists(churn_phases(), max_size=4))
        ),
        warm_fraction=warm_fraction,
        warm_packets=warm_packets,
        sampler=draw(st.sampled_from(["uniform", "view"])),
        view_size=draw(st.integers(min_value=1, max_value=32)),
        renewal_period=draw(st.integers(min_value=1, max_value=16)),
        topology=draw(st.one_of(st.none(), topology_specs(n_nodes))),
        content=content,
        node_kwargs=draw(node_kwargs_for(scheme)),
    )


@settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_spec_roundtrips_through_dict(spec):
    assert ScenarioSpec.from_dict(spec.to_dict()) == spec


@settings(max_examples=60, deadline=None)
@given(scenario_specs())
def test_spec_roundtrips_through_json(spec):
    rebuilt = ScenarioSpec.from_json(spec.to_json())
    assert rebuilt == spec
    # The dict form must itself be pure JSON (no tuples, no dataclasses).
    assert json.loads(json.dumps(spec.to_dict())) == spec.to_dict()


@settings(max_examples=40, deadline=None)
@given(scenario_specs(), scenario_specs())
def test_distinct_specs_serialise_distinctly(a, b):
    assert (a == b) == (a.to_json() == b.to_json())


def test_parallel_runner_bitwise_matches_serial():
    spec = ScenarioSpec(
        name="parallel-check",
        n_nodes=8,
        k=16,
        churn_rate=0.05,
        loss_rate=0.1,
        node_kwargs={"aggressiveness": 0.01},
    )
    serial = serial_grid([spec], 4, 7)[spec.name]
    parallel = FleetRunner(n_workers=4).run(spec, 4, master_seed=7)
    assert serial.to_json() == parallel.to_json()


def test_parallel_grid_bitwise_matches_serial_on_preset():
    spec = get_preset("churn", PROFILES["quick"])
    serial = serial_grid([spec], 4, 7)
    parallel = FleetRunner(n_workers=4).run_grid([spec], 4, master_seed=7)
    assert serial["churn"].to_json() == parallel["churn"].to_json()


@pytest.mark.parametrize("name", TOPOLOGY_PRESETS)
def test_topology_presets_are_worker_count_invariant(name):
    # The graph is grown inside each worker from the trial seed; the
    # aggregated JSON must stay byte-identical for any worker count.
    spec = get_preset(name, PROFILES["quick"])
    serial = serial_grid([spec], 4, 7)[spec.name]
    parallel = FleetRunner(n_workers=4).run(spec, 4, master_seed=7)
    assert serial.to_json() == parallel.to_json()
