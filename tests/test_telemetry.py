"""End-to-end contracts of the fleet telemetry layer (ISSUE 8).

The promises under test:

* enabling telemetry changes nothing — the aggregate JSON of a
  telemetry-collecting run is byte-identical to a plain run;
* the merged ``telemetry.json`` is byte-identical across worker counts
  × shard counts × interrupt/resume cycles, and to the plain-loop
  oracle (``tests/oracles.py``);
* resume only replays a checkpoint into a telemetry run together with
  its telemetry section — a missing/corrupt/mismatched section
  recomputes the shard (with a logged warning) instead of silently
  dropping its telemetry;
* ``validate_telemetry`` rejects malformed artifacts with named
  violations, including summed counters that break their kind's
  declared laws (so does a shard checkpoint's section).
"""

import json
import logging

import pytest

from repro.obs.telemetry import (
    TELEMETRY_FORMAT,
    TELEMETRY_VERSION,
    read_telemetry,
    validate_telemetry,
    write_telemetry,
)
from repro.scenarios import (
    CheckpointStore,
    FleetRunner,
    FleetStop,
    ScenarioSpec,
)
from repro.scenarios.runner import (
    TrialSpec,
    merge_trial_snapshots,
    run_trial,
    run_trial_telemetry,
    trial_seed,
)

from oracles import serial_grid, serial_telemetry

SPEC = ScenarioSpec(name="tel-x", n_nodes=8, k=16, loss_rate=0.1)
OTHER = ScenarioSpec(name="tel-y", n_nodes=8, k=16)
SEED = 2010
TRIALS = 6


def _agg_json(aggregates) -> str:
    return json.dumps(
        {name: agg.to_dict() for name, agg in sorted(aggregates.items())},
        sort_keys=True,
    )


# -- worker function -----------------------------------------------------
def test_run_trial_telemetry_result_matches_plain_run_trial():
    trial = TrialSpec(SPEC, 0, trial_seed(SEED, SPEC.name, 0))
    plain = run_trial(trial)
    result, snapshot = run_trial_telemetry(trial)
    assert result.to_dict() == plain.to_dict()  # collection is free
    assert snapshot["counters"]["rounds"] == result.rounds
    assert snapshot["labels"]["kind"] == "epidemic"
    assert snapshot["histograms"]["completion_round"]["count"] > 0


def test_merge_trial_snapshots_counts_trials():
    trials = [
        TrialSpec(SPEC, i, trial_seed(SEED, SPEC.name, i)) for i in range(2)
    ]
    snapshots = [run_trial_telemetry(t)[1] for t in trials]
    section = merge_trial_snapshots(snapshots)
    assert section["n_trials"] == 2
    assert section["counters"]["rounds"] == sum(
        s["counters"]["rounds"] for s in snapshots
    )


# -- invariance ----------------------------------------------------------
def test_telemetry_collection_leaves_aggregates_byte_identical(tmp_path):
    plain = FleetRunner(n_workers=1).run_grid([SPEC, OTHER], TRIALS, SEED)
    with_telemetry = FleetRunner(
        n_workers=1, telemetry_dir=tmp_path
    ).run_grid([SPEC, OTHER], TRIALS, SEED)
    assert _agg_json(plain) == _agg_json(with_telemetry)
    assert _agg_json(plain) == _agg_json(
        serial_grid([SPEC, OTHER], TRIALS, SEED)
    )
    payload = read_telemetry(tmp_path / "telemetry.json")
    validate_telemetry(payload)
    assert set(payload["scenarios"]) == {SPEC.name, OTHER.name}


def test_telemetry_is_worker_and_shard_count_invariant(tmp_path):
    oracle = write_telemetry(
        tmp_path / "oracle" / "telemetry.json",
        serial_telemetry([SPEC, OTHER], TRIALS, SEED),
    )
    reference = oracle.read_bytes()
    for name, runner in (
        ("serial", FleetRunner(n_workers=1, telemetry_dir=tmp_path / "a")),
        ("pooled", FleetRunner(n_workers=3, telemetry_dir=tmp_path / "b")),
        (
            "fleet",
            FleetRunner(
                n_workers=2, n_shards=3, telemetry_dir=tmp_path / "c"
            ),
        ),
        (
            "fleet1",
            FleetRunner(
                n_workers=1, n_shards=1, telemetry_dir=tmp_path / "d"
            ),
        ),
    ):
        runner.run_grid([SPEC, OTHER], TRIALS, SEED)
        text = (runner.telemetry_dir / "telemetry.json").read_bytes()
        assert text == reference, f"{name} telemetry diverged"
    validate_telemetry(json.loads(reference))


def test_fleet_interrupt_resume_telemetry_byte_identical(tmp_path):
    golden_dir = tmp_path / "golden"
    FleetRunner(
        n_workers=1, n_shards=3, telemetry_dir=golden_dir
    ).run_grid([SPEC], TRIALS, SEED)
    golden = (golden_dir / "telemetry.json").read_bytes()

    ckpt = tmp_path / "ckpt"
    out = tmp_path / "resumed"
    interrupted = FleetRunner(
        n_workers=1,
        n_shards=3,
        checkpoint_dir=ckpt,
        stop_after_shards=1,
        telemetry_dir=out,
    )
    with pytest.raises(FleetStop):
        interrupted.run_grid([SPEC], TRIALS, SEED)
    assert interrupted.last_telemetry is None  # no partial artifact
    assert not (out / "telemetry.json").exists()

    resumed = FleetRunner(
        n_workers=2,
        n_shards=3,
        checkpoint_dir=ckpt,
        resume=True,
        telemetry_dir=out,
    )
    resumed.run_grid([SPEC], TRIALS, SEED)
    assert (out / "telemetry.json").read_bytes() == golden


def test_resume_without_telemetry_shards_recomputes(tmp_path, caplog):
    ckpt = tmp_path / "ckpt"
    out = tmp_path / "out"
    golden_dir = tmp_path / "golden"
    FleetRunner(
        n_workers=1, n_shards=2, telemetry_dir=golden_dir
    ).run_grid([SPEC], TRIALS, SEED)
    # Checkpoints written by a telemetry-free run carry no telemetry
    # section, so a telemetry run cannot replay them.
    FleetRunner(
        n_workers=1, n_shards=2, checkpoint_dir=ckpt
    ).run_grid([SPEC], TRIALS, SEED)
    assert not any(
        "telemetry" in json.loads(p.read_text())
        for p in ckpt.glob("shard-*.json")
    )
    with caplog.at_level(logging.WARNING):
        resumed = FleetRunner(
            n_workers=1,
            n_shards=2,
            checkpoint_dir=ckpt,
            resume=True,
            telemetry_dir=out,
        )
        resumed.run_grid([SPEC], TRIALS, SEED)
    assert caplog.text.count("no telemetry section") == 2
    assert (out / "telemetry.json").read_bytes() == (
        golden_dir / "telemetry.json"
    ).read_bytes()
    # The recomputed shards were checkpointed with their sections, and
    # only shard files and progress.json sit beside them.
    assert all(
        "telemetry" in json.loads(p.read_text())
        for p in ckpt.glob("shard-*.json")
    )
    assert sorted(p.name for p in ckpt.iterdir()) == [
        "progress.json",
        "shard-tel-x-0000.json",
        "shard-tel-x-0001.json",
    ]


def test_resume_with_telemetry_shards_replays_without_rerun(tmp_path):
    ckpt = tmp_path / "ckpt"
    out = tmp_path / "out"
    FleetRunner(
        n_workers=1, n_shards=2, checkpoint_dir=ckpt, telemetry_dir=out
    ).run_grid([SPEC], TRIALS, SEED)
    golden = (out / "telemetry.json").read_bytes()
    resumed = FleetRunner(
        n_workers=1,
        n_shards=2,
        checkpoint_dir=ckpt,
        resume=True,
        telemetry_dir=out,
    )
    # Replay must not execute a single trial: break the worker path.
    import repro.scenarios.fleet as fleet_module

    original = fleet_module.parallel_map

    def _explode(*args, **kwargs):
        raise AssertionError("resume re-ran a checkpointed shard")

    fleet_module.parallel_map = _explode
    try:
        resumed.run_grid([SPEC], TRIALS, SEED)
    finally:
        fleet_module.parallel_map = original
    assert (out / "telemetry.json").read_bytes() == golden


# -- stored telemetry paranoia -------------------------------------------
def test_telemetry_store_rejects_corrupt_and_mismatched(tmp_path, caplog):
    # A shard's telemetry is stored in its checkpoint and replayed only
    # under the checkpoint's paranoia, section checks included.
    from repro.scenarios.fleet import grid_fingerprint, plan_shards

    shards = plan_shards([SPEC], 4, master_seed=SEED, n_shards=2)
    fingerprint = grid_fingerprint([SPEC], 4, SEED, n_shards=2)
    store = CheckpointStore(tmp_path)
    records = [
        {"trial_index": t.trial_index, "seed": t.seed} for t in shards[0].trials()
    ]
    section = {"n_trials": 2, "counters": {"rounds": 7}}
    path = store.save(shards[0], fingerprint, records, section)
    assert store.load(shards[0], fingerprint) == (records, section)
    good = json.loads(path.read_text())
    for telemetry, reason in [
        ({"n_trials": 0, "counters": {}}, "n_trials"),
        ({"n_trials": 2, "counters": {"rounds": -1}}, "counter"),
        ({"n_trials": 2}, "counters missing"),
        ("not a section", "not an object"),
        ({"n_trials": 3, "counters": {"rounds": 7}}, "covers 3 trials"),
    ]:
        path.write_text(json.dumps(dict(good, telemetry=telemetry)))
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            assert store.load(shards[0], fingerprint) is None
        assert reason in caplog.text
    # Corrupt JSON -> recompute.
    path.write_text("{not json")
    with caplog.at_level(logging.WARNING):
        assert store.load(shards[0], fingerprint) is None
    # Another shard's file is never accepted for this shard.
    other = store.save(
        shards[1],
        fingerprint,
        [{"trial_index": t.trial_index, "seed": t.seed} for t in shards[1].trials()],
        section,
    )
    path.write_text(other.read_text())  # shard 1 payload at shard 0 path
    assert store.load(shards[0], fingerprint) is None


# -- counter laws --------------------------------------------------------
def test_telemetry_breaking_a_law_fails_tracestats(tmp_path, capsys):
    from repro.experiments import tracestats

    FleetRunner(n_workers=1, telemetry_dir=tmp_path).run_grid([SPEC], 2, SEED)
    path = tmp_path / "telemetry.json"
    assert tracestats.main(["--telemetry", str(path)]) == 0
    payload = json.loads(path.read_text())
    payload["scenarios"][SPEC.name]["counters"]["sessions"] += 1
    path.write_text(json.dumps(payload))
    assert tracestats.main(["--telemetry", str(path)]) == 1
    assert "sessions = aborted + data_transfers" in capsys.readouterr().err


def test_checkpoint_section_breaking_a_law_is_recomputed(tmp_path, caplog):
    ckpt = tmp_path / "ckpt"
    out = tmp_path / "out"
    FleetRunner(
        n_workers=1, n_shards=2, checkpoint_dir=ckpt, telemetry_dir=out
    ).run_grid([SPEC], TRIALS, SEED)
    golden = (out / "telemetry.json").read_bytes()
    shard = sorted(ckpt.glob("shard-*.json"))[0]
    payload = json.loads(shard.read_text())
    payload["telemetry"]["counters"]["aborted"] += 1
    shard.write_text(json.dumps(payload))
    with caplog.at_level(logging.WARNING):
        FleetRunner(
            n_workers=1,
            n_shards=2,
            checkpoint_dir=ckpt,
            resume=True,
            telemetry_dir=out,
        ).run_grid([SPEC], TRIALS, SEED)
    assert "sessions = aborted + data_transfers" in caplog.text
    assert "recomputing" in caplog.text
    assert (out / "telemetry.json").read_bytes() == golden


# -- artifact schema -----------------------------------------------------
def test_validate_telemetry_names_violations(tmp_path):
    good = {
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "scenarios": {
            "s": {
                "n_trials": 2,
                "labels": {},
                "counters": {"rounds": 5},
                "gauges": {},
                "histograms": {},
            }
        },
    }
    validate_telemetry(good)
    for mutate, message in [
        (lambda p: p.update(format="x"), "format"),
        (lambda p: p.update(version=99), "version"),
        (lambda p: p.update(scenarios={}), "scenarios"),
        (
            lambda p: p["scenarios"]["s"].update(n_trials=0),
            "n_trials",
        ),
        (
            lambda p: p["scenarios"]["s"]["counters"].update(rounds=-1),
            "counter",
        ),
        (
            lambda p: p["scenarios"]["s"].update(
                histograms={"h": {"boundaries": []}}
            ),
            "histogram",
        ),
    ]:
        payload = json.loads(json.dumps(good))
        mutate(payload)
        with pytest.raises(ValueError, match=message):
            validate_telemetry(payload)


def test_write_telemetry_is_atomic_and_sorted(tmp_path):
    path = tmp_path / "telemetry.json"
    a = {"n_trials": 1, "counters": {"rounds": 3}}
    b = {"n_trials": 1, "counters": {"rounds": 4}}
    write_telemetry(path, {"b": b, "a": a})
    payload = read_telemetry(path)
    assert list(payload["scenarios"]) == ["a", "b"]
    assert not list(tmp_path.glob("*.tmp*"))
    # Deterministic bytes: same sections -> same file.
    first = path.read_bytes()
    write_telemetry(path, {"a": a, "b": b})
    assert path.read_bytes() == first
