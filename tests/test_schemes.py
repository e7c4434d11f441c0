"""The pluggable-scheme registry: contract, validation, rng guards.

Three layers of protection:

* **registry contract** — every registered scheme satisfies the
  :class:`~repro.schemes.descriptor.SchemeNode` protocol, completes a
  quick baseline scenario, and survives the churn node-replacement
  path with its kwargs intact;
* **spec-time knob validation** — typos and out-of-range knobs fail
  when the spec is built (with a did-you-mean), not mid-trial in a
  worker process;
* **rng-stream guard** — ``resolve(scheme).make_node`` /
  ``.make_source`` and the simulator produce **byte-identical rng
  streams** vs. seed for the four historic schemes (fingerprints
  recorded on the pre-registry code).
"""

import math

import pytest

from repro.errors import SimulationError
from repro.gossip.simulator import EpidemicSimulator
from repro.rng import derive
from repro.scenarios.spec import ScenarioSpec
from repro.schemes import (
    CodingScheme,
    SchemeNode,
    available_schemes,
    get_scheme,
    register_scheme,
    resolve,
    unregister_scheme,
)

#: One distinctive (knob, value, node attribute check) per scheme, used
#: by the churn-survival test.  The attribute check receives the node.
DISTINCTIVE_KWARGS = {
    "wc": ({"fanout": 5}, lambda n: n.fanout == 5),
    "rlnc": ({"sparsity": 3}, lambda n: n.sparsity == 3),
    "ltnc": ({"aggressiveness": 0.05}, lambda n: n.aggressiveness == 0.05),
    "rndlt": ({"combine": 4}, lambda n: n.combine == 4),
    "sparse_rlnc": (
        {"density": 0.25},
        lambda n: n.density == 0.25 and n.sparsity == math.ceil(0.25 * n.k),
    ),
}


# ----------------------------------------------------------------------
# Registry contract
# ----------------------------------------------------------------------
def test_builtins_are_registered_in_order():
    assert available_schemes()[:4] == ("wc", "rlnc", "ltnc", "rndlt")
    assert "sparse_rlnc" in available_schemes()


def test_every_registered_kwarg_fixture_is_covered():
    # Keep DISTINCTIVE_KWARGS in sync with the registry.
    assert set(DISTINCTIVE_KWARGS) == set(available_schemes())


@pytest.mark.parametrize("name", available_schemes())
def test_nodes_and_sources_satisfy_protocol(name):
    scheme = get_scheme(name)
    node = scheme.make_node(0, 8, n_nodes=4, rng=1)
    source = scheme.make_source(8, rng=2)
    assert isinstance(node, SchemeNode)
    assert isinstance(source, SchemeNode)
    assert not node.is_complete()
    assert source.is_complete()
    assert source.can_send()
    packet = source.make_packet(None)
    assert node.header_is_innovative(packet.vector) in (True, False)


@pytest.mark.parametrize("name", available_schemes())
def test_make_node_accepts_every_knob_at_its_default(name):
    # A knob that outlives its constructor parameter passes spec-time
    # validation and then fails in a worker; catch it here instead.
    scheme = get_scheme(name)
    for knob in scheme.knobs:
        node = scheme.make_node(
            0, 8, n_nodes=4, rng=1, **{knob.name: knob.default}
        )
        assert isinstance(node, SchemeNode), knob.name


@pytest.mark.parametrize("name", available_schemes())
def test_every_scheme_completes_quick_baseline(name):
    spec = ScenarioSpec(
        name=f"quick-{name}",
        scheme=name,
        n_nodes=8,
        k=16,
        max_rounds=4000,
        node_kwargs=dict(get_scheme(name).default_node_kwargs),
    )
    result = spec.run(seed=7)
    assert result.all_complete
    assert result.scheme == name


@pytest.mark.parametrize("name", available_schemes())
def test_churn_replacement_preserves_scheme_kwargs(name):
    kwargs, check = DISTINCTIVE_KWARGS[name]
    sim = EpidemicSimulator(
        name, n_nodes=6, k=8, seed=11, max_rounds=4000, node_kwargs=kwargs
    )
    assert all(check(node) for node in sim.nodes)
    sim._churn()
    assert sim.result.churn_events == 1
    # The crash-and-restart replacement was rebuilt through the same
    # descriptor with the same kwargs.
    assert all(check(node) for node in sim.nodes)
    assert sim.run().all_complete


def test_descriptor_accepted_wherever_names_are():
    ltnc = get_scheme("ltnc")
    assert resolve(ltnc) is ltnc
    result = EpidemicSimulator(ltnc, n_nodes=6, k=8, seed=3).run()
    assert result.scheme == "ltnc"
    # Specs normalise descriptors back to names, so the plain-JSON
    # round-trip contract survives descriptor-typed construction.
    spec = ScenarioSpec(name="d", scheme=ltnc)
    assert spec.scheme == "ltnc"
    assert ScenarioSpec.from_json(spec.to_json()) == spec


def test_full_feedback_is_gated_on_capability():
    # Algorithm-4 smart construction only exists where the descriptor
    # says so; a full-feedback spec on any other scheme would silently
    # measure nothing, so it is rejected at spec time.
    assert ScenarioSpec(name="ok", scheme="ltnc", feedback="full")
    for name in ("wc", "rlnc", "rndlt", "sparse_rlnc"):
        with pytest.raises(SimulationError, match="feedback 'full'"):
            ScenarioSpec(name="bad", scheme=name, feedback="full")


def test_capability_flags_match_the_paper():
    assert get_scheme("ltnc").supports_full_feedback
    assert get_scheme("ltnc").supports_generations
    assert not get_scheme("wc").recodes
    # §IV-B: exact innovation checks make WC/RLNC overhead zero.
    for name in ("wc", "rlnc", "sparse_rlnc"):
        assert get_scheme(name).exact_innovation_check
    for name in ("ltnc", "rndlt"):
        assert not get_scheme(name).exact_innovation_check


def test_register_duplicate_and_unregister():
    dummy = CodingScheme(
        name="dummy_test_scheme",
        summary="registry hygiene fixture",
        node_factory=lambda node_id, k, m, n, rng, **kw: None,
        source_factory=lambda k, content, rng, **kw: None,
    )
    register_scheme(dummy)
    try:
        assert "dummy_test_scheme" in available_schemes()
        with pytest.raises(SimulationError, match="already registered"):
            register_scheme(dummy)
        register_scheme(dummy, replace=True)  # explicit override is fine
    finally:
        unregister_scheme("dummy_test_scheme")
    assert "dummy_test_scheme" not in available_schemes()


def test_unknown_scheme_error_lists_registry_everywhere():
    for build in (
        lambda: get_scheme("nope"),
        lambda: resolve("nope").make_node(0, 8),
        lambda: resolve("nope").make_source(8),
        lambda: EpidemicSimulator("nope", 4, 8),
        lambda: ScenarioSpec(name="x", scheme="nope"),
    ):
        with pytest.raises(SimulationError, match="unknown scheme 'nope'") as e:
            build()
        assert "ltnc" in str(e.value)  # the registry listing is shown


# ----------------------------------------------------------------------
# Spec-time knob validation
# ----------------------------------------------------------------------
def test_knob_typo_fails_at_spec_time_with_suggestion():
    with pytest.raises(SimulationError, match="agressiveness") as e:
        ScenarioSpec(
            name="typo", scheme="ltnc", node_kwargs={"agressiveness": 3}
        )
    assert "did you mean 'aggressiveness'" in str(e.value)


def test_knob_range_and_type_fail_at_spec_time():
    with pytest.raises(SimulationError, match="must be <= 1"):
        ScenarioSpec(
            name="range", scheme="ltnc", node_kwargs={"aggressiveness": 3.0}
        )
    with pytest.raises(SimulationError, match="expects int"):
        ScenarioSpec(
            name="type", scheme="rlnc", node_kwargs={"sparsity": 2.5}
        )
    with pytest.raises(SimulationError, match="must be > 0"):
        ScenarioSpec(
            name="zero", scheme="sparse_rlnc", node_kwargs={"density": 0.0}
        )
    # Non-finite values slip past < / > range checks; reject explicitly.
    for bad in (float("nan"), float("inf")):
        with pytest.raises(SimulationError, match="must be finite"):
            ScenarioSpec(
                name="nan", scheme="sparse_rlnc", node_kwargs={"density": bad}
            )


def test_knobs_of_other_schemes_are_rejected():
    with pytest.raises(SimulationError, match="has no knob 'density'"):
        ScenarioSpec(name="cross", scheme="rlnc", node_kwargs={"density": 0.1})


def test_catalogue_validates_kwargs_against_content_schemes():
    # The scenario's scheme would accept the knob, but the catalogue's
    # contents run rlnc — which has no 'aggressiveness'.
    with pytest.raises(SimulationError, match="scheme 'rlnc' has no knob"):
        ScenarioSpec(
            name="cat",
            scheme="ltnc",
            content={"n_contents": 2, "scheme": "rlnc"},
            node_kwargs={"aggressiveness": 0.01},
        )


def test_allow_none_knobs_build_and_run():
    # Every allow_none knob means "compute the contextual default";
    # an explicit None (JSON null) must build, not crash in a worker.
    for name, knob in (
        ("wc", "fanout"),
        ("wc", "buffer_size"),
        ("rlnc", "sparsity"),
        ("rndlt", "combine"),
    ):
        spec = ScenarioSpec(
            name=f"none-{name}-{knob}",
            scheme=name,
            n_nodes=4,
            k=8,
            max_rounds=10,
            node_kwargs={knob: None},
        )
        spec.build(seed=1)


def test_valid_spec_kwargs_still_pass():
    spec = ScenarioSpec(
        name="ok",
        scheme="ltnc",
        node_kwargs={"aggressiveness": 0.02, "refine": False},
    )
    assert spec.node_kwargs["refine"] is False


# ----------------------------------------------------------------------
# rng-stream guard: byte-identical rng streams vs. seed
# ----------------------------------------------------------------------
#: EpidemicSimulator(scheme, n_nodes=10, k=16, seed=42, max_rounds=4000)
#: fingerprints recorded on the pre-registry if/elif implementation:
#: (rounds, sessions, data_transfers, aborted, sum(completion_rounds)).
#: ltnc and rndlt were re-recorded once when their set reads took
#: ascending id order (round plan v2).
SIM_FINGERPRINTS = {
    "wc": (57, 792, 160, 632, 352),
    "rlnc": (20, 274, 160, 114, 131),
    "ltnc": (38, 526, 324, 202, 260),
    "rndlt": (138, 1926, 1446, 480, 1052),
}

#: First three code vectors (as index tuples) out of
#: resolve(scheme).make_source(16, rng=derive(7, "guard-src", scheme)),
#: same provenance as SIM_FINGERPRINTS.
SOURCE_FINGERPRINTS = {
    "wc": [(0,), (1,), (2,)],
    "rlnc": [
        (6, 8, 11, 12, 14),
        (0, 1, 2, 3, 5, 10, 12, 15),
        (1, 4, 5, 6, 7, 8, 10, 11, 12, 13, 15),
    ],
    "ltnc": [(12, 15), (5,), (3, 14)],
    "rndlt": [
        (2, 3, 4, 8),
        (1, 5, 7, 11, 12, 14),
        (0, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
    ],
}


@pytest.mark.parametrize("name", sorted(SIM_FINGERPRINTS))
def test_simulator_rng_streams_bit_identical_to_pre_registry(name):
    result = EpidemicSimulator(
        name, n_nodes=10, k=16, seed=42, max_rounds=4000
    ).run()
    got = (
        result.rounds,
        result.sessions,
        result.data_transfers,
        result.aborted,
        sum(result.completion_rounds.values()),
    )
    assert got == SIM_FINGERPRINTS[name]


@pytest.mark.parametrize("name", sorted(SOURCE_FINGERPRINTS))
def test_source_rng_streams_bit_identical_to_pre_registry(name):
    source = resolve(name).make_source(16, rng=derive(7, "guard-src", name))
    vectors = [
        tuple(int(i) for i in source.make_packet(None).vector.indices())
        for _ in range(3)
    ]
    assert vectors == SOURCE_FINGERPRINTS[name]
