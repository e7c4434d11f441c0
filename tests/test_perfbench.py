"""Unit tests for the repro.experiments.perfbench harness."""

from __future__ import annotations

import json

import pytest

from repro.experiments.perfbench import (
    SCHEMA_VERSION,
    bench_bitvector_ops,
    bench_decode,
    bench_end_to_end,
    bench_fleet,
    bench_phases,
    bench_rref_insert_reduce,
    main,
    run_perfbench,
    validate_bench,
)


def test_microbench_units_report_positive_rates():
    rref = bench_rref_insert_reduce(32, 50, seed=1)
    assert rref["n_ops"] == 50 and rref["ops_per_sec"] > 0
    vec = bench_bitvector_ops(32, 500, seed=1)
    assert vec["ixor_per_sec"] > 0 and vec["indices_per_sec"] > 0
    dec = bench_decode(16, 1, seed=1)
    assert dec["gauss_packets"] >= 16 and dec["bp_packets"] >= 16
    assert dec["gauss_packets_per_sec"] > 0 and dec["bp_packets_per_sec"] > 0


def test_fast_and_reference_kernels_do_identical_work():
    # Same seed -> same vector stream -> the op counts agree; only the
    # wall-clock rate may differ.  Guards against benching the two
    # kernels on accidentally different workloads.
    fast = bench_rref_insert_reduce(24, 40, seed=9, kernel="fast")
    ref = bench_rref_insert_reduce(24, 40, seed=9, kernel="reference")
    assert fast["n_ops"] == ref["n_ops"] == 40


def test_end_to_end_bench_completes_scenario():
    entry = bench_end_to_end("rlnc", n_nodes=6, k=8, seed=5)
    assert entry["all_complete"]
    assert entry["rounds"] >= 1 and entry["rounds_per_sec"] > 0


def test_phase_bench_reports_breakdown():
    entry = bench_phases("ltnc", n_nodes=6, k=8, seed=5)
    assert entry["all_complete"]
    table = entry["phases"]
    assert table["encode"]["calls"] > 0 and table["decode"]["calls"] > 0
    assert table["refine"]["calls"] > 0  # LTNC's Algorithm-2 slice
    assert all(cell["seconds"] >= 0 for cell in table.values())
    # refine is a subset of encode, excluded from the measured slice.
    assert entry["measured_seconds"] <= entry["seconds"] + 1e-6
    # The profiled workload is the bench_end_to_end workload: identical
    # seed and sizes, hence the identical simulated trajectory.
    assert entry["rounds"] == bench_end_to_end("ltnc", 6, 8, seed=5)["rounds"]


def test_fleet_bench_reports_throughput():
    entry = bench_fleet(
        n_trials=6, n_nodes=6, k=8, seed=5, n_workers=1, n_shards=3
    )
    assert entry["n_trials"] == 6 and entry["n_shards"] == 3
    assert entry["trials_per_sec"] > 0
    assert entry["completed_fraction"] == 1.0
    # v4: the fleet row carries the workload's deterministic counters.
    telemetry = entry["telemetry"]
    assert telemetry["n_trials"] == 6
    assert telemetry["counters"]["rounds"] > 0
    assert telemetry["counters"]["completed_nodes"] == 6 * 6


def test_fleet_bench_telemetry_counters_are_deterministic():
    # Unlike the rates, the telemetry half of the fleet row is pure
    # workload: re-running with a different worker split must reproduce
    # it bit-for-bit.
    a = bench_fleet(n_trials=4, n_nodes=6, k=8, seed=5, n_workers=1, n_shards=2)
    b = bench_fleet(n_trials=4, n_nodes=6, k=8, seed=5, n_workers=2, n_shards=4)
    assert a["telemetry"] == b["telemetry"]


def test_run_perfbench_quick_schema_and_validation(tmp_path):
    report = run_perfbench(
        profile="quick", seed=7, ks=(16, 32), schemes=("wc", "rlnc")
    )
    validate_bench(report)
    assert report["schema_version"] == SCHEMA_VERSION == 6
    assert set(report["end_to_end"]) == {"wc", "rlnc"}
    assert set(report["phases"]) == {"wc", "rlnc"}
    entry = report["microbench"]["rref_insert_reduce"]["k=32"]
    assert {"ops_per_sec", "baseline_ops_per_sec", "speedup_vs_baseline"} <= set(
        entry
    )
    # v5: N-scaling rows and the numpy-kernel bench; v6: one round
    # loop, so no scalar leg.
    for label, row in report["n_scaling"].items():
        assert row["batched"]["rounds_per_sec"] > 0, label
        assert "scalar" not in row and "speedup_batched_vs_scalar" not in row
    for label, row in report["microbench"]["kernel_batch"].items():
        assert row["numpy_ops_per_sec"] > 0, label
        assert row["int_ops_per_sec"] > 0, label
        assert row["block_ops_per_sec"] > 0, label
    # Round-trips through JSON (the artifact contract).
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(report))
    validate_bench(json.loads(path.read_text()))


def test_validate_bench_rejects_broken_reports():
    report = run_perfbench(
        profile="quick",
        seed=7,
        ks=(16,),
        schemes=("wc",),
        include_baseline=False,
    )
    validate_bench(report)
    broken = json.loads(json.dumps(report))
    broken["microbench"]["rref_insert_reduce"]["k=16"]["ops_per_sec"] = 0
    with pytest.raises(ValueError, match="ops_per_sec not positive"):
        validate_bench(broken)
    missing = json.loads(json.dumps(report))
    del missing["end_to_end"]
    with pytest.raises(ValueError, match="end_to_end"):
        validate_bench(missing)
    no_fleet = json.loads(json.dumps(report))
    del no_fleet["fleet"]
    with pytest.raises(ValueError, match="fleet section missing"):
        validate_bench(no_fleet)
    slow_fleet = json.loads(json.dumps(report))
    slow_fleet["fleet"]["trials_per_sec"] = 0
    with pytest.raises(ValueError, match="fleet.trials_per_sec"):
        validate_bench(slow_fleet)
    no_phases = json.loads(json.dumps(report))
    del no_phases["phases"]
    with pytest.raises(ValueError, match="phases section missing"):
        validate_bench(no_phases)
    cold_phases = json.loads(json.dumps(report))
    cold_phases["phases"]["wc"]["phases"].pop("decode")
    with pytest.raises(ValueError, match=r"phases\[wc\].phases.decode"):
        validate_bench(cold_phases)
    rewound = json.loads(json.dumps(report))
    rewound["phases"]["wc"]["phases"]["encode"]["seconds"] = -0.1
    with pytest.raises(ValueError, match="negative phase time"):
        validate_bench(rewound)
    no_telemetry = json.loads(json.dumps(report))
    del no_telemetry["fleet"]["telemetry"]
    with pytest.raises(ValueError, match="fleet.telemetry section missing"):
        validate_bench(no_telemetry)
    short_telemetry = json.loads(json.dumps(report))
    short_telemetry["fleet"]["telemetry"]["n_trials"] -= 1
    with pytest.raises(ValueError, match="does not cover the grid"):
        validate_bench(short_telemetry)
    bad_counter = json.loads(json.dumps(report))
    bad_counter["fleet"]["telemetry"]["counters"]["rounds"] = -1
    with pytest.raises(ValueError, match="negative/non-int"):
        validate_bench(bad_counter)
    no_scaling = json.loads(json.dumps(report))
    del no_scaling["n_scaling"]
    with pytest.raises(ValueError, match="n_scaling section missing"):
        validate_bench(no_scaling)
    slow_batch = json.loads(json.dumps(report))
    next(iter(slow_batch["n_scaling"].values()))["batched"][
        "rounds_per_sec"
    ] = 0
    with pytest.raises(ValueError, match="batched.rounds_per_sec"):
        validate_bench(slow_batch)
    with pytest.raises(ValueError, match="unknown profile"):
        run_perfbench(profile="nope")


def test_validate_bench_accepts_v4_history_reports():
    # The checked-in trajectory holds v4 and v5 reports; those files
    # must keep validating against the sections they were written with.
    report = run_perfbench(
        profile="quick",
        seed=7,
        ks=(16,),
        schemes=("wc",),
        include_baseline=False,
    )
    v5 = json.loads(json.dumps(report))
    v5["schema_version"] = 5
    for row in v5["n_scaling"].values():
        row["scalar"] = dict(row["batched"])
        row["speedup_batched_vs_scalar"] = 1.0
    v5["phases"]["ltnc_batched"] = v5["phases"]["wc"]
    validate_bench(v5)
    no_batched_phases = json.loads(json.dumps(v5))
    del no_batched_phases["phases"]["ltnc_batched"]
    with pytest.raises(ValueError, match="ltnc_batched missing"):
        validate_bench(no_batched_phases)
    no_speedup = json.loads(json.dumps(v5))
    next(iter(no_speedup["n_scaling"].values()))["speedup_batched_vs_scalar"] = 0
    with pytest.raises(ValueError, match="speedup_batched_vs_scalar"):
        validate_bench(no_speedup)
    v4 = json.loads(json.dumps(report))
    v4["schema_version"] = 4
    del v4["n_scaling"]
    del v4["microbench"]["kernel_batch"]
    validate_bench(v4)
    v3 = json.loads(json.dumps(v4))
    v3["schema_version"] = 3
    with pytest.raises(ValueError, match="schema_version"):
        validate_bench(v3)


def test_cli_writes_validated_json(tmp_path, capsys):
    out = tmp_path / "BENCH_test.json"
    history = tmp_path / "history"
    assert (
        main(
            [
                "--quick",
                "--seed",
                "3",
                "--out",
                str(out),
                "--history-dir",
                str(history),
            ]
        )
        == 0
    )
    data = json.loads(out.read_text())
    validate_bench(data)
    assert data["profile"] == "quick"
    assert "rref k=64" in capsys.readouterr().out
    copies = list(history.glob("bench-*.json"))
    assert len(copies) == 1
    assert json.loads(copies[0].read_text()) == data
