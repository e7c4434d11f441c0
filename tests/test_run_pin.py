"""Pinned telemetry and trace records of three small traced runs.

The run loop, its trace and its telemetry fold are shared code; this
test pins what they emit so a refactor of any of them shows up as a
changed digest.  Each run records into a
:class:`~repro.obs.metrics.MetricsCollector` and a JSONL trace.  The
digests cover the collector's ``snapshot()`` JSON and every trace
record, in file order and with its key order, after dropping the
host-dependent ``t`` and ``dt`` timestamps:

* epidemic ``ltnc`` with loss, duplication, churn and cache warm-up,
  traced at session detail;
* the quick-profile ``edge_cache_catalogue`` preset;
* the wireless simulator with snooping on.

A digest that moves means the refactor changed observable behaviour;
if the change is intended, record the new digest together with the
reason.
"""

import hashlib
import json

import pytest

from repro.experiments.scale import PROFILES
from repro.gossip.wireless import WirelessSimulator, WirelessTopology
from repro.obs import JsonlTracer, MetricsCollector, ObsSpec, read_trace
from repro.scenarios import ScenarioSpec
from repro.scenarios.presets import get_preset
from repro.schemes import get_scheme

SEED = 2718

#: run name -> (sha256 of the snapshot JSON, sha256 of the trace records)
PINNED = {
    "epidemic": (
        "1a9c53994af448b298e96a1dfc7599632f73ed9835b2339c0d01636a357b4f22",
        "f625515f4832fc4392c40ed3cc1dd589560d0a83de6aaa603b4fe7e2da4f95d1",
    ),
    "catalogue": (
        "ccf22d121bc59896ec493625270a9de38ad26d8a2bcab4803df0f09cfb280d49",
        "729f9385e2dd9d2f2973d0603b18399f20fb8d4d1f94f5a2edb85dea9be7fd89",
    ),
    "wireless": (
        "d651c13a1545ebca871294e32c385d90da864f956b354405be9786f33ea7d5ad",
        "5b6adea39af8e6dd413350d627dc0170d77bb8b220b950270d7023bb7ad9db67",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(collector: MetricsCollector, trace_path) -> tuple[str, str]:
    snapshot = json.dumps(collector.snapshot(), sort_keys=True)
    records = [
        {k: v for k, v in record.items() if k not in ("t", "dt")}
        for record in read_trace(trace_path)
    ]
    # No sort_keys: the trace's key order is part of what is pinned.
    lines = "\n".join(json.dumps(record) for record in records)
    return _sha(snapshot), _sha(lines)


def _scenario_run(spec: ScenarioSpec, tmp_path) -> tuple[str, str]:
    collector = MetricsCollector()
    spec.build(SEED, metrics=collector).run()
    (trace,) = tmp_path.glob("trace-*.jsonl")
    return _digests(collector, trace)


def _epidemic(tmp_path) -> tuple[str, str]:
    spec = ScenarioSpec(
        name="pin-epidemic",
        scheme="ltnc",
        n_nodes=12,
        k=16,
        loss_rate=0.05,
        duplicate_rate=0.05,
        churn_rate=0.1,
        warm_fraction=0.25,
        warm_packets=6,
        node_kwargs=dict(get_scheme("ltnc").default_node_kwargs),
        obs=ObsSpec(trace_dir=tmp_path, detail="session"),
    )
    return _scenario_run(spec, tmp_path)


def _catalogue(tmp_path) -> tuple[str, str]:
    spec = get_preset("edge_cache_catalogue", PROFILES["quick"])
    return _scenario_run(spec.with_(obs=ObsSpec(trace_dir=tmp_path)), tmp_path)


def _wireless(tmp_path) -> tuple[str, str]:
    collector = MetricsCollector()
    path = tmp_path / "trace-wireless.jsonl"
    WirelessSimulator(
        "ltnc",
        WirelessTopology(12, radius=0.4, rng=5),
        16,
        snoop=True,
        seed=7,
        max_rounds=6000,
        tracer=JsonlTracer(path, meta={"scenario": "pin-wireless"}),
        metrics=collector,
    ).run()
    return _digests(collector, path)


RUNS = {"epidemic": _epidemic, "catalogue": _catalogue, "wireless": _wireless}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_telemetry_and_trace_records_are_pinned(name, tmp_path):
    assert RUNS[name](tmp_path) == PINNED[name]
