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
from repro.gossip.wireless import WirelessSimulator
from repro.obs import JsonlTracer, MetricsCollector, ObsSpec, read_trace
from repro.scenarios import ScenarioSpec
from repro.scenarios.presets import get_preset
from repro.schemes import get_scheme
from repro.topology.generators import random_geometric

SEED = 2718

#: run name -> (sha256 of the snapshot JSON, sha256 of the trace records)
#: All three were re-recorded when LTNC's set reads took ascending id
#: order (round plan v2).  The epidemic snapshot was re-recorded again
#: when LTNC nodes began recording their ``ltnc:*`` statistics, and
#: once more when a node that churns out records them as it dies
#: (before, only the final membership's were recorded).
PINNED = {
    "epidemic": (
        "3fc9cc414a7a6542bf32c18f8a52eef1ffcdc5f8c762b9397a9f7755d2988c24",
        "52c432803994d3f63df3448129abdc43aaf5f129a504feef44b90624eb9e5d02",
    ),
    "catalogue": (
        "1097a200af6da75cd5585338f19b2905056db5a32896f19e7acf78ddde64745e",
        "2543b5bc453970ba9028abc0b8610cf4c7011e1d67e5584628a36ad8b895ce85",
    ),
    "wireless": (
        "5d860f94c130b45e299540d1ddee06709a57b79480b341758e3db04f47c769bf",
        "ffad6b30c353456dac0c4b61d38e7c7fbb04e6f5256c970cf692cdda3124ee1a",
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
        random_geometric(12, radius=0.4, rng=5),
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
