"""Tests for the sharded trial fleet: planning, checkpoints, resume.

The contracts under test:

* shard-count invariance — 1 shard, 4 shards and the plain-loop
  oracle (``tests/oracles.py``) serialise to byte-identical JSON, for
  1 and 4 workers;
* checkpoint → kill → resume produces JSON byte-identical to an
  uninterrupted run, without re-running checkpointed shards;
* a checkpoint is replayed only when its records fit the plan —
  trial indices, trial seeds and numeric (or null) metric values;
* ``ScenarioAggregate.metrics_summary`` summarises the union of metric
  keys across heterogeneous shards, not just trial 0's keys;
* ``write_json`` / checkpoint writes are atomic — a crash mid-write
  never leaves a truncated file a resume would trust;
* ``parallel_map`` re-raises ``KeyboardInterrupt`` instead of leaving
  orphaned workers, and its chunked dispatch is size-aware.
"""

import json
import os

import pytest

from repro.errors import SimulationError
from repro.fileio import atomic_write_text
from repro.scenarios import (
    CheckpointStore,
    FleetRunner,
    FleetStop,
    ScenarioAggregate,
    ScenarioSpec,
    TrialSpec,
    default_chunksize,
    grid_fingerprint,
    parallel_map,
    plan_shards,
    trial_seed,
)
from repro.scenarios import fleet as fleet_module

from oracles import serial_grid

SPEC = ScenarioSpec(name="fleet-x", n_nodes=8, k=16, loss_rate=0.1)
OTHER = ScenarioSpec(name="fleet-y", n_nodes=8, k=16)


def _interruptible(item: int) -> int:
    """Module-level (picklable) worker fn that simulates Ctrl-C."""
    if item == 3:
        raise KeyboardInterrupt
    return item * 2


# -- shard planning ------------------------------------------------------
def test_plan_shards_partitions_balanced_and_disjoint():
    shards = plan_shards([SPEC, OTHER], 10, master_seed=7, n_shards=4)
    assert len(shards) == 8  # 4 per scenario
    for scenario in (SPEC, OTHER):
        mine = [s for s in shards if s.scenario is scenario]
        covered = [i for s in mine for i in s.trial_indices]
        assert covered == list(range(10))
        sizes = [len(s.trial_indices) for s in mine]
        assert max(sizes) - min(sizes) <= 1
        assert [s.shard_index for s in mine] == [0, 1, 2, 3]


def test_plan_shards_caps_at_trial_count():
    shards = plan_shards([SPEC], 2, master_seed=0, n_shards=8)
    assert len(shards) == 2
    assert all(len(s.trial_indices) == 1 for s in shards)


def test_plan_shards_validates():
    with pytest.raises(SimulationError):
        plan_shards([SPEC], 0, 0, 1)
    with pytest.raises(SimulationError):
        plan_shards([SPEC], 1, 0, 0)
    with pytest.raises(SimulationError):
        plan_shards([SPEC, SPEC], 1, 0, 1)


def test_shard_trials_match_runner_seed_tree():
    shards = plan_shards([SPEC], 6, master_seed=9, n_shards=2)
    grid = [TrialSpec(SPEC, i, trial_seed(9, SPEC.name, i)) for i in range(6)]
    fleet_trials = [t for s in shards for t in s.trials()]
    assert fleet_trials == grid


def test_grid_fingerprint_is_order_insensitive_but_shape_sensitive():
    base = grid_fingerprint([SPEC, OTHER], 4, 7, 2)
    assert grid_fingerprint([OTHER, SPEC], 4, 7, 2) == base
    assert grid_fingerprint([SPEC, OTHER], 5, 7, 2) != base
    assert grid_fingerprint([SPEC, OTHER], 4, 8, 2) != base
    assert grid_fingerprint([SPEC, OTHER], 4, 7, 3) != base
    assert grid_fingerprint([SPEC], 4, 7, 2) != base


# -- chunked dispatch ----------------------------------------------------
def test_default_chunksize_is_size_aware():
    assert default_chunksize(1, 4) == 1
    assert default_chunksize(4, 4) == 1  # small grids still spread out
    assert default_chunksize(100, 4) == 7  # ~4 chunks per worker
    assert default_chunksize(10_000, 4) == 32  # capped
    assert default_chunksize(0, 4) == 1


def test_parallel_map_rejects_bad_chunksize():
    with pytest.raises(SimulationError):
        parallel_map(abs, [1, 2], n_workers=1, chunksize=0)


def test_parallel_map_chunked_preserves_order():
    items = list(range(23))
    assert parallel_map(_interruptible, [0, 1, 2], n_workers=2) == [0, 2, 4]
    assert (
        parallel_map(abs, items, n_workers=3, chunksize=5)
        == parallel_map(abs, items, n_workers=1)
        == items
    )


def test_parallel_map_reraises_keyboard_interrupt_serial_and_pooled():
    with pytest.raises(KeyboardInterrupt):
        parallel_map(_interruptible, [1, 2, 3, 4], n_workers=1)
    with pytest.raises(KeyboardInterrupt):
        parallel_map(_interruptible, [1, 2, 3, 4, 5, 6], n_workers=2)


# -- aggregation bugfixes ------------------------------------------------
def test_metrics_summary_unions_heterogeneous_keys():
    # A metric present only in later trials (e.g. per-content keys
    # after merging heterogeneous shards) must still be summarised.
    agg = ScenarioAggregate(SPEC, 0)
    agg.add_record({"trial_index": 0, "seed": 10, "rounds": 4})
    agg.add_record(
        {"trial_index": 1, "seed": 11, "rounds": 6, "content:a:rounds": 8}
    )
    summary = agg.metrics_summary()
    assert set(summary) == {"rounds", "content:a:rounds"}
    assert summary["rounds"]["n"] == 2
    assert summary["content:a:rounds"] == {
        "n": 1, "mean": 8.0, "ci95": 0.0, "min": 8.0, "max": 8.0,
    }
    # First-seen order over index-sorted trials, regardless of
    # insertion order.
    flipped = ScenarioAggregate(SPEC, 0)
    flipped.add_record(
        {"trial_index": 1, "seed": 11, "rounds": 6, "content:a:rounds": 8}
    )
    flipped.add_record({"trial_index": 0, "seed": 10, "rounds": 4})
    assert list(flipped.metrics_summary()) == ["rounds", "content:a:rounds"]
    assert flipped.to_json() == agg.to_json()


def test_merge_with_heterogeneous_metric_keys_across_shards():
    first = ScenarioAggregate(SPEC, 0)
    second = ScenarioAggregate(SPEC, 0)
    # Shard 2's trials carry a key shard 1 never saw; after the merge
    # re-sorts, that key must survive into the JSON metrics block.
    second.add_record(
        {"trial_index": 2, "seed": 12, "rounds": 5, "cache_hit_ratio": 0.5}
    )
    first.add_record({"trial_index": 0, "seed": 10, "rounds": 4})
    first.add_record({"trial_index": 1, "seed": 11, "rounds": 6})
    first.merge(second)
    payload = json.loads(first.to_json())
    assert "cache_hit_ratio" in payload["metrics"]
    assert payload["metrics"]["cache_hit_ratio"]["n"] == 1
    assert [t["trial_index"] for t in payload["trials"]] == [0, 1, 2]


def test_add_record_requires_identity_keys():
    agg = ScenarioAggregate(SPEC, 0)
    with pytest.raises(SimulationError):
        agg.add_record({"rounds": 4})


def test_write_json_is_atomic(tmp_path, monkeypatch):
    agg = ScenarioAggregate(SPEC, 0)
    agg.add_record({"trial_index": 0, "seed": 10, "rounds": 4})
    path = tmp_path / "agg.json"
    agg.write_json(path)
    good = path.read_text()
    assert json.loads(good)["n_trials"] == 1
    # No temp droppings after a clean write.
    assert [p.name for p in tmp_path.iterdir()] == ["agg.json"]

    # Crash during the final rename: the original file must survive
    # intact and the temp file must be cleaned up.
    def boom(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", boom)
    agg.add_record({"trial_index": 1, "seed": 11, "rounds": 9})
    with pytest.raises(OSError):
        agg.write_json(path)
    monkeypatch.undo()
    assert path.read_text() == good
    assert [p.name for p in tmp_path.iterdir()] == ["agg.json"]


def test_atomic_write_text_creates_parents(tmp_path):
    target = tmp_path / "a" / "b" / "out.txt"
    assert atomic_write_text(target, "hi\n") == target
    assert target.read_text() == "hi\n"


# -- checkpoint store ----------------------------------------------------
def _one_shard(n_trials=4, n_shards=2):
    shards = plan_shards([SPEC], n_trials, master_seed=7, n_shards=n_shards)
    fp = grid_fingerprint([SPEC], n_trials, 7, n_shards)
    return shards, fp


def _records(shard, **metrics):
    """Plan-consistent trial records for *shard*."""
    return [
        {"trial_index": t.trial_index, "seed": t.seed, **metrics}
        for t in shard.trials()
    ]


def test_checkpoint_roundtrip_and_paranoia(tmp_path):
    shards, fp = _one_shard()
    store = CheckpointStore(tmp_path)
    records = _records(shards[0], rounds=3.5)
    path = store.save(shards[0], fp, records)
    assert path.exists()
    assert store.load(shards[0], fp) == (records, None)
    # The telemetry section rides in the same file.
    section = {"n_trials": 2, "counters": {"rounds": 7}}
    store.save(shards[0], fp, records, section)
    assert store.load(shards[0], fp) == (records, section)
    # Wrong fingerprint (different grid) is never replayed.
    assert store.load(shards[0], "0" * 64) is None
    # Absent shard.
    assert store.load(shards[1], fp) is None
    # Truncated/corrupt file is recomputed, not trusted.
    path.write_text(path.read_text()[: len(path.read_text()) // 2])
    assert store.load(shards[0], fp) is None


def test_checkpoint_rejects_tampered_trial_indices(tmp_path):
    shards, fp = _one_shard()
    store = CheckpointStore(tmp_path)
    path = store.save(shards[0], fp, _records(shards[0]))
    payload = json.loads(path.read_text())
    payload["trials"] = payload["trials"][:-1]
    path.write_text(json.dumps(payload))
    assert store.load(shards[0], fp) is None


@pytest.mark.parametrize(
    "tamper",
    [
        lambda record: record.pop("seed"),
        lambda record: record.update(seed=record["seed"] + 1),
        lambda record: record.update(rounds=[1, 2]),
        lambda record: record.update(rounds="12"),
        lambda record: record.update(rounds=True),
    ],
    ids=["no-seed", "foreign-seed", "list-metric", "string-metric", "bool-metric"],
)
def test_checkpoint_rejects_malformed_trial_records(tmp_path, caplog, tamper):
    # Such a record used to pass load() and crash the resume later, in
    # add_record (no seed) or metrics_summary (non-numeric metric).
    shards, fp = _one_shard()
    store = CheckpointStore(tmp_path)
    path = store.save(shards[0], fp, _records(shards[0], rounds=4))
    payload = json.loads(path.read_text())
    tamper(payload["trials"][0])
    path.write_text(json.dumps(payload))
    with caplog.at_level("WARNING", logger="repro.scenarios.fleet"):
        assert store.load(shards[0], fp) is None
    assert "recomputing" in caplog.text
    # A resume over the bad checkpoint recomputes the shard and still
    # matches the oracle.
    resumed = FleetRunner(
        1, n_shards=2, checkpoint_dir=tmp_path, resume=True
    ).run(SPEC, 4, master_seed=7)
    assert resumed.to_json() == serial_grid([SPEC], 4, 7)[SPEC.name].to_json()


def test_checkpoint_filenames_are_filesystem_safe(tmp_path):
    weird = SPEC.with_(name="baseline[ltnc/η]")
    shard = plan_shards([weird], 2, 0, 1)[0]
    path = CheckpointStore(tmp_path).path_for(shard)
    assert "/" not in path.name and "[" not in path.name
    assert path.parent == tmp_path


# -- fleet runner --------------------------------------------------------
def test_fleet_runner_validates_arguments(tmp_path):
    with pytest.raises(SimulationError):
        FleetRunner(0)
    with pytest.raises(SimulationError):
        FleetRunner(1, n_shards=0)
    with pytest.raises(SimulationError):
        FleetRunner(1, stop_after_shards=0)
    with pytest.raises(SimulationError):
        FleetRunner(1, resume=True)  # resume needs a checkpoint dir
    FleetRunner(1, resume=True, checkpoint_dir=tmp_path)


@pytest.mark.parametrize("n_workers", [1, 4])
def test_shard_count_invariance_matches_serial(n_workers):
    # 1 shard == 4 shards == the plain-loop oracle, byte for byte — the
    # shard-level extension of the workers-1==4 property tests.
    serial = serial_grid([SPEC], 4, 7)[SPEC.name].to_json()
    for n_shards in (1, 4):
        fleet = FleetRunner(n_workers=n_workers, n_shards=n_shards)
        assert fleet.run(SPEC, 4, master_seed=7).to_json() == serial


def test_fleet_grid_matches_trial_runner_grid():
    serial = serial_grid([SPEC, OTHER], 3, 5)
    fleet = FleetRunner(n_workers=2, n_shards=3).run_grid(
        [SPEC, OTHER], 3, master_seed=5
    )
    assert list(fleet) == list(serial) == ["fleet-x", "fleet-y"]
    for name in serial:
        assert fleet[name].to_json() == serial[name].to_json()


def test_stop_resume_is_byte_identical_to_uninterrupted(tmp_path):
    golden = serial_grid([SPEC, OTHER], 4, 7)
    with pytest.raises(FleetStop) as excinfo:
        FleetRunner(
            n_workers=1,
            n_shards=2,
            checkpoint_dir=tmp_path,
            stop_after_shards=1,
        ).run_grid([SPEC, OTHER], 4, master_seed=7)
    assert excinfo.value.completed_shards == 1
    assert excinfo.value.total_shards == 4
    # One shard checkpointed (progress.json rides along separately).
    assert len(list(tmp_path.glob("shard-*.json"))) == 1
    for n_workers in (1, 4):
        resumed = FleetRunner(
            n_workers=n_workers,
            n_shards=2,
            checkpoint_dir=tmp_path,
            resume=True,
        ).run_grid([SPEC, OTHER], 4, master_seed=7)
        for name in golden:
            assert resumed[name].to_json() == golden[name].to_json()


def test_resume_does_not_rerun_checkpointed_shards(tmp_path, monkeypatch):
    with pytest.raises(FleetStop):
        FleetRunner(
            1, n_shards=4, checkpoint_dir=tmp_path, stop_after_shards=2
        ).run(SPEC, 4, master_seed=7)
    done = {
        json.loads(p.read_text())["trial_indices"][0]
        for p in tmp_path.glob("shard-*.json")
    }
    assert len(done) == 2

    def refuse_rerun(trial):
        if trial.trial_index in done:
            raise AssertionError(
                f"re-ran checkpointed trial {trial.trial_index}"
            )
        return SPEC.run(trial.seed)

    monkeypatch.setattr(fleet_module, "run_trial", refuse_rerun)
    resumed = FleetRunner(
        1, n_shards=4, checkpoint_dir=tmp_path, resume=True
    ).run(SPEC, 4, master_seed=7)
    assert resumed.to_json() == serial_grid([SPEC], 4, 7)[SPEC.name].to_json()


def test_resume_recomputes_when_grid_changed(tmp_path):
    with pytest.raises(FleetStop):
        FleetRunner(
            1, n_shards=4, checkpoint_dir=tmp_path, stop_after_shards=1
        ).run(SPEC, 4, master_seed=7)
    # Same checkpoint dir, different master seed: stale checkpoints are
    # ignored and the run is still correct.
    resumed = FleetRunner(
        1, n_shards=4, checkpoint_dir=tmp_path, resume=True
    ).run(SPEC, 4, master_seed=8)
    assert resumed.to_json() == serial_grid([SPEC], 4, 8)[SPEC.name].to_json()


def test_stop_after_only_counts_executed_shards(tmp_path):
    # A resume that replays 2 checkpoints and may execute 2 more shards
    # completes a 4-shard grid without stopping again.
    with pytest.raises(FleetStop):
        FleetRunner(
            1, n_shards=4, checkpoint_dir=tmp_path, stop_after_shards=2
        ).run(SPEC, 4, master_seed=7)
    resumed = FleetRunner(
        1,
        n_shards=4,
        checkpoint_dir=tmp_path,
        resume=True,
        stop_after_shards=2,
    ).run(SPEC, 4, master_seed=7)
    assert resumed.to_json() == serial_grid([SPEC], 4, 7)[SPEC.name].to_json()


# -- CLI ------------------------------------------------------------------
def test_cli_checkpoint_stop_resume_roundtrip(tmp_path, capsys):
    from repro.scenarios.__main__ import main

    base = [
        "--scenario", "baseline", "--trials", "4", "--seed", "7",
        "--scale", "quick",
    ]
    assert main(base) == 0
    golden = capsys.readouterr().out

    ckpt = str(tmp_path / "ckpt")
    fleet = base + ["--shards", "2", "--checkpoint-dir", ckpt]
    assert main(fleet + ["--stop-after-shards", "1"]) == 3
    captured = capsys.readouterr()
    assert "stopped after 1/2 shards" in captured.err
    assert len(list((tmp_path / "ckpt").glob("shard-*.json"))) == 1

    assert main(fleet + ["--resume"]) == 0
    assert capsys.readouterr().out == golden


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["--shards", "0"], "--shards must be >= 1"),
        (["--stop-after-shards", "0"], "--stop-after-shards must be >= 1"),
        (["--resume"], "--resume requires --checkpoint-dir"),
        (
            ["--stop-after-shards", "1"],
            "--stop-after-shards requires --checkpoint-dir",
        ),
    ],
)
def test_cli_rejects_bad_fleet_arguments(capsys, argv, fragment):
    from repro.scenarios.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert fragment in err
    assert "Traceback" not in err
