"""The production round loop and LTNC bodies match their oracles.

The simulator runs one round loop — the v1 round plan, which draws each
run of senders' targets in one sampler call — and the LTNC recoder one
body per algorithm.  The determinism contract says a trial's *results*
(completion trajectory, metrics, and every OpCounter total) are those
of the straightforward implementations kept in ``tests/oracles.py``:
the scalar loop, the reference LTNC bodies and the reference WC and
RLNC bodies.  This suite pins that contract from four directions:

* a hypothesis sweep over simulator configs (scheme, peer sampler,
  feedback mode, loss, duplication, churn) asserting production and
  oracle runs serialise to the same JSON — ``DisseminationResult.
  to_dict`` embeds the recode and decode counter snapshots, so op
  accounting is covered, not just metrics — and that every result obeys
  the counter conservation laws;
* RLNC at k = 1,024, where nodes run the numpy elimination kernel,
  against the oracle;
* the ``large_overlay`` preset re-run on the oracle;
* the round loop under the parallel trial runner: a 1,024-node bounded
  workload aggregated with 1 worker and with 4 must produce
  byte-identical aggregate JSON (worker-count invariance does not
  decay at scale-out sizes).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import assert_conserved, reference_paths
from repro.coding import make_content
from repro.experiments.scale import PROFILES
from repro.gossip.channel import ChannelModel
from repro.gossip.peer_sampling import UniformSampler, ViewSampler
from repro.gossip.simulator import EpidemicSimulator, Feedback
from repro.rng import derive
from repro.scenarios import FleetRunner, get_preset
from repro.schemes import get_scheme

QUICK = PROFILES["quick"]

_SAMPLERS = {"uniform": UniformSampler, "view": ViewSampler}


def _run_json(sampler: str, seed: int, **kw) -> str:
    peers = _SAMPLERS[sampler](kw["n_nodes"], rng=derive(seed, "sampler"))
    result = EpidemicSimulator(seed=seed, sampler=peers, **kw).run()
    assert_conserved(result)
    return json.dumps(result.to_dict(), sort_keys=True)


@settings(max_examples=30, deadline=None)
@given(
    scheme=st.sampled_from(["wc", "rlnc", "sparse_rlnc", "rndlt", "ltnc"]),
    sampler=st.sampled_from(["uniform", "view"]),
    n_nodes=st.integers(min_value=8, max_value=40),
    k=st.integers(min_value=4, max_value=24),
    feedback=st.sampled_from([Feedback.NONE, Feedback.BINARY, Feedback.FULL]),
    loss=st.sampled_from([0.0, 0.1, 0.25]),
    duplicate=st.sampled_from([0.0, 0.15]),
    churn=st.sampled_from([0.0, 0.05]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_scalar_and_batched_runs_are_bit_identical(
    scheme, sampler, n_nodes, k, feedback, loss, duplicate, churn, seed
):
    assume(
        feedback is not Feedback.FULL
        or get_scheme(scheme).supports_full_feedback
    )
    kw = dict(
        scheme=scheme,
        n_nodes=n_nodes,
        k=k,
        feedback=feedback,
        max_rounds=300,
        channel=ChannelModel(
            loss_rate=loss, duplicate_rate=duplicate, churn_rate=churn
        ),
    )
    with reference_paths():
        oracle = _run_json(sampler, seed, **kw)
    assert _run_json(sampler, seed, **kw) == oracle


@pytest.mark.parametrize("content", [None, make_content(1024, 4, rng=3)])
def test_numpy_kernel_rlnc_matches_oracle(content):
    kw = dict(
        scheme="rlnc",
        n_nodes=8,
        k=1024,
        content=content,
        feedback=Feedback.BINARY,
        max_rounds=150,
    )
    with reference_paths():
        oracle = _run_json("uniform", 5, **kw)
    assert _run_json("uniform", 5, **kw) == oracle


def test_large_overlay_preset_is_scalar_identical():
    spec = get_preset("large_overlay", QUICK)
    production = spec.run(seed=2010)
    with reference_paths():
        oracle = spec.run(seed=2010)
    assert_conserved(production)
    assert json.dumps(production.to_dict(), sort_keys=True) == json.dumps(
        oracle.to_dict(), sort_keys=True
    )


def test_worker_split_invariance_at_scale_out_size():
    # N=1024, rounds bounded so the test stays in CI budget; the
    # aggregate (metrics, series, counter snapshots for every trial)
    # must not depend on the worker split.
    spec = get_preset("large_overlay", QUICK).with_(
        name="n1024", n_nodes=1024, max_rounds=12
    )
    aggs = []
    for workers in (1, 4):
        agg = FleetRunner(n_workers=workers).run_grid(
            [spec], 2, master_seed=2010
        )["n1024"]
        aggs.append(agg.to_json())
    assert aggs[0] == aggs[1]
