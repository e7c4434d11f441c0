"""Observability is free: tracing/profiling change no simulation result.

The contracts pinned here are the reason ``repro.obs`` may exist at
all in a determinism-first reproduction:

* a traced run of every built-in scheme emits **byte-identical**
  result JSON (including OpCounter snapshots) to the untraced run —
  the tracer reads no rng and charges no counter;
* the same holds for profiled runs (phase timing is observation, not
  participation) and for session-detail tracing;
* catalogue and wireless simulators honour the same contract;
* a fleet with the progress callback + ``progress.json`` aggregates
  byte-identically to one without, leaves **zero** ``*.tmp*`` files
  behind, and reports every shard done;
* ``CheckpointStore.load`` names the file and reason whenever it
  rejects a checkpoint, instead of silently recomputing.
"""

import json
import logging

from repro.obs import ObsSpec, PhaseProfiler
from repro.scenarios import (
    CheckpointStore,
    FleetRunner,
    ScenarioSpec,
    grid_fingerprint,
    plan_shards,
)
from repro.scenarios.fleet import CHECKPOINT_VERSION
from repro.schemes import available_schemes, get_scheme

from oracles import serial_grid

SEED = 314159


def _spec(scheme: str) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"obs-{scheme}",
        scheme=scheme,
        n_nodes=8,
        k=16,
        loss_rate=0.05,
        node_kwargs=dict(get_scheme(scheme).default_node_kwargs),
    )


def _result_json(spec: ScenarioSpec, seed: int = SEED) -> str:
    return json.dumps(spec.build(seed).run().to_dict(), sort_keys=True)


# -- epidemic simulator --------------------------------------------------
def test_tracing_changes_nothing_for_every_scheme(tmp_path):
    for scheme in available_schemes():
        plain = _result_json(_spec(scheme))
        traced = _result_json(
            _spec(scheme).with_(obs=ObsSpec(trace_dir=tmp_path / scheme))
        )
        assert traced == plain, f"tracing perturbed {scheme}"
        assert list((tmp_path / scheme).glob("trace-*.jsonl")), scheme


def test_session_detail_tracing_changes_nothing(tmp_path):
    spec = _spec("ltnc").with_(churn_rate=0.02)
    plain = _result_json(spec)
    traced = _result_json(
        spec.with_(obs=ObsSpec(trace_dir=tmp_path, detail="session"))
    )
    assert traced == plain


def test_profiling_changes_nothing_and_measures_phases():
    for scheme in ("ltnc", "rlnc"):
        spec = _spec(scheme)
        plain = spec.build(SEED).run()
        profiler = PhaseProfiler()
        from repro.gossip.simulator import EpidemicSimulator

        profiled_spec = spec.with_(obs=ObsSpec(profile=True))
        sim = profiled_spec.build(SEED)
        assert isinstance(sim, EpidemicSimulator)
        assert sim.profiler is not None
        profiled = sim.run()
        assert json.dumps(profiled.to_dict(), sort_keys=True) == json.dumps(
            plain.to_dict(), sort_keys=True
        )
        snap = sim.profiler.snapshot()
        assert snap["encode"]["calls"] > 0
        assert snap["decode"]["calls"] > 0
        if scheme == "ltnc":
            # Refinement is charged by the node, through the run's clock.
            assert snap["refine"]["calls"] > 0
        assert profiler.total_seconds() == 0.0  # the unused one stayed cold


def test_trace_plus_profile_compose(tmp_path):
    spec = _spec("ltnc")
    plain = _result_json(spec)
    traced = _result_json(
        spec.with_(obs=ObsSpec(trace_dir=tmp_path, profile=True))
    )
    assert traced == plain
    trace = next(tmp_path.glob("trace-*.jsonl"))
    assert '"name":"phases"' in trace.read_text()


# -- catalogue simulator -------------------------------------------------
def test_catalogue_tracing_changes_nothing(tmp_path):
    from repro.experiments.scale import PROFILES
    from repro.scenarios.presets import get_preset

    spec = get_preset("zipf_catalogue", PROFILES["quick"])
    plain = spec.build(SEED).run().key_metrics()
    traced = (
        spec.with_(obs=ObsSpec(trace_dir=tmp_path))
        .build(SEED)
        .run()
        .key_metrics()
    )
    assert traced == plain
    assert list(tmp_path.glob("trace-*.jsonl"))


# -- wireless simulator --------------------------------------------------
def test_wireless_tracing_changes_nothing(tmp_path):
    from repro.gossip.wireless import WirelessSimulator, WirelessTopology
    from repro.obs import JsonlTracer

    def run(tracer=None):
        topo = WirelessTopology(12, radius=0.4, rng=5)
        sim = WirelessSimulator(
            "ltnc", topo, 16, seed=7, max_rounds=6000, tracer=tracer
        )
        return sim.run()

    import dataclasses

    plain = run()
    traced = run(JsonlTracer(tmp_path / "w.jsonl"))
    assert dataclasses.asdict(traced) == dataclasses.asdict(plain)
    lines = (tmp_path / "w.jsonl").read_text().splitlines()
    assert json.loads(lines[0])["kind"] == "header"
    assert any('"name":"round"' in line for line in lines)


# -- fleet progress ------------------------------------------------------
def test_fleet_with_progress_is_byte_identical_and_tmp_free(tmp_path):
    spec = ScenarioSpec(name="obs-fleet", n_nodes=8, k=16)
    plain = serial_grid([spec], 4, 3)
    beats = []
    runner = FleetRunner(
        n_workers=1,
        n_shards=2,
        checkpoint_dir=tmp_path,
        progress=beats.append,
    )
    fleet = runner.run_grid([spec], 4, master_seed=3)
    assert (
        fleet["obs-fleet"].to_json() == plain["obs-fleet"].to_json()
    )
    # Heartbeats: one per shard, monotone, finishing complete.
    assert [b.shards_done for b in beats] == [1, 2]
    assert beats[-1].trials_done == beats[-1].trials_total == 4
    # progress.json mirrors the final heartbeat, atomically.
    payload = json.loads((tmp_path / "progress.json").read_text())
    assert payload["shards_done"] == payload["shards_total"] == 2
    # Satellite contract: a completed fleet leaves no temp droppings.
    assert not list(tmp_path.glob("*.tmp*"))
    assert not list(tmp_path.glob(".*.tmp"))


def test_fleet_progress_marks_resumed_shards_replayed(tmp_path):
    spec = ScenarioSpec(name="obs-fleet", n_nodes=8, k=16)
    FleetRunner(
        n_workers=1, n_shards=2, checkpoint_dir=tmp_path
    ).run_grid([spec], 4, master_seed=3)
    beats = []
    FleetRunner(
        n_workers=1,
        n_shards=2,
        checkpoint_dir=tmp_path,
        resume=True,
        progress=beats.append,
    ).run_grid([spec], 4, master_seed=3)
    assert [b.replayed for b in beats] == [True, True]


def test_fleet_sweeps_stale_tmp_files(tmp_path):
    spec = ScenarioSpec(name="obs-fleet", n_nodes=8, k=16)
    store = CheckpointStore(tmp_path)
    (tmp_path / ".shard-x.json.abc123.tmp").write_text("killed mid-write")
    assert store.sweep_stale_tmp() == 1
    (tmp_path / ".shard-y.json.def456.tmp").write_text("killed mid-write")
    FleetRunner(
        n_workers=1, n_shards=2, checkpoint_dir=tmp_path
    ).run_grid([spec], 2, master_seed=3)
    assert not list(tmp_path.glob(".*.tmp"))


# -- checkpoint load warnings --------------------------------------------
def test_checkpoint_load_warns_with_file_and_reason(tmp_path, caplog):
    spec = ScenarioSpec(name="obs-ckpt", n_nodes=8, k=16)
    shards = plan_shards([spec], 2, master_seed=1, n_shards=1)
    shard = shards[0]
    fingerprint = grid_fingerprint([spec], 2, 1, n_shards=1)
    store = CheckpointStore(tmp_path)
    path = store.path_for(shard)

    def load_warning(text: str) -> str:
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.scenarios.fleet"):
            path.write_text(text)
            assert store.load(shard, fingerprint) is None
        assert len(caplog.records) == 1
        message = caplog.records[0].getMessage()
        assert str(path) in message  # every warning names the file
        return message

    # Missing file: the normal first run, silent.
    path.unlink(missing_ok=True)
    with caplog.at_level(logging.WARNING):
        assert store.load(shard, fingerprint) is None
    assert not caplog.records

    assert "corrupt JSON" in load_warning("{truncated")
    assert "corrupt JSON" in load_warning('["not an object"]')

    good = json.loads(
        json.dumps(
            {
                "format": "ltnc-fleet-checkpoint",
                "version": CHECKPOINT_VERSION,
                "fingerprint": fingerprint,
                "scenario": spec.to_dict(),
                "master_seed": 1,
                "shard_index": 0,
                "n_shards": 1,
                "trial_indices": [0, 1],
                "trials": [],
            }
        )
    )
    stale = dict(good, version=999)
    assert "version" in load_warning(json.dumps(stale))
    foreign = dict(good, fingerprint="feedface")
    assert "fingerprint mismatch" in load_warning(json.dumps(foreign))
    other_shard = dict(good, shard_index=5)
    assert "shard identity" in load_warning(json.dumps(other_shard))
    bad_trials = dict(good, trials=["not a dict"])
    assert "malformed trial" in load_warning(json.dumps(bad_trials))


# -- atomic_write_text cleanup -------------------------------------------
def test_atomic_write_cleans_tmp_when_replace_fails(tmp_path, monkeypatch):
    import os

    from repro.scenarios.aggregate import atomic_write_text

    def explode(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", explode)
    try:
        atomic_write_text(tmp_path / "out.json", "{}")
    except OSError:
        pass
    else:  # pragma: no cover - the patch guarantees the raise
        raise AssertionError("expected OSError")
    assert list(tmp_path.iterdir()) == []  # no stray temp file


# -- telemetry is free ---------------------------------------------------
def test_telemetry_collection_changes_nothing_for_every_scheme():
    # The metrics collector hangs off the simulator but records only
    # after the run: rng streams and OpCounter snapshots stay
    # byte-identical, scheme by scheme.
    from repro.obs import MetricsCollector

    for scheme in available_schemes():
        spec = _spec(scheme)
        plain = _result_json(spec)
        collector = MetricsCollector()
        collected = json.dumps(
            spec.build(SEED, metrics=collector).run().to_dict(),
            sort_keys=True,
        )
        assert collected == plain, f"telemetry perturbed {scheme}"
        snap = collector.snapshot()
        assert snap["counters"]["rounds"] > 0
        assert snap["labels"]["scheme"] == scheme


def test_spans_compose_with_trace_and_telemetry(tmp_path):
    # Full observability stack on: spans + round trace + telemetry +
    # gzip. Still byte-identical results, and the compressed trace
    # carries the span records.
    from repro.obs import MetricsCollector, read_trace

    spec = _spec("ltnc")
    plain = _result_json(spec)
    collector = MetricsCollector()
    stacked = json.dumps(
        spec.with_(obs=ObsSpec(trace_dir=tmp_path, compress=True))
        .build(SEED, metrics=collector)
        .run()
        .to_dict(),
        sort_keys=True,
    )
    assert stacked == plain
    trace = next(tmp_path.glob("trace-*.jsonl.gz"))
    spans = [r for r in read_trace(trace) if r["kind"] == "span"]
    assert {r["name"] for r in spans} >= {"build", "run", "collect"}
    run_span = next(r for r in spans if r["name"] == "run")
    assert run_span["rounds"] == collector.counters["rounds"]


def test_gzip_tracing_changes_nothing_and_compresses(tmp_path):
    spec = _spec("ltnc")
    plain = _result_json(spec)
    compressed = _result_json(
        spec.with_(obs=ObsSpec(trace_dir=tmp_path, compress=True))
    )
    assert compressed == plain
    assert list(tmp_path.glob("trace-*.jsonl.gz"))
    assert not list(tmp_path.glob("*.jsonl"))
