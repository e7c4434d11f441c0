"""CLI contract of the sweep CLI, ``python -m repro.scenarios``.

Bad arguments must exit 2 with argparse's short usage + error message
— never a traceback, never a bare exit 1.  The table runs against each
comparison sweep (topology, catalogue, schemes), so every group
invocation carries the contract; the fleet and observability flags
must leave the aggregated JSON on stdout unchanged.
"""

import json

import pytest

from repro.scenarios.__main__ import main
from repro.schemes import available_schemes

#: The comparison sweeps: test id -> the ``--scenario`` arguments.
DRIVERS = {
    "topo_compare": ["--scenario", "topology"],
    "content_compare": ["--scenario", "content"],
    "scheme_compare": ["--scenario", "schemes"],
}

BAD_ARGS = [
    (["--workers", "0"], "--workers must be >= 1"),
    (["--workers", "-2"], "--workers must be >= 1"),
    (["--trials", "0"], "--trials must be >= 1"),
    (["--trials", "-3"], "--trials must be >= 1"),
    (["--scale", "nope"], "unknown scale 'nope'"),
    (["--shards", "0"], "--shards must be >= 1"),
    (["--stop-after-shards", "0"], "--stop-after-shards must be >= 1"),
    (["--resume"], "--resume requires --checkpoint-dir"),
    (
        ["--stop-after-shards", "2"],
        "--stop-after-shards requires --checkpoint-dir",
    ),
    (
        ["--trace-detail", "session"],
        "--trace-detail requires --trace-dir",
    ),
    (["--trace-dir", "x", "--trace-detail", "packet"], "invalid choice"),
    (["--trace-compress"], "--trace-compress requires --trace-dir"),
    (["--scenario", "nope"], "unknown scenario 'nope'"),
    (["--scenario", "baseline", "topologies"], "unknown scenario 'topologies'"),
    (["--scenario", "baseline[nope]"], "unknown scheme 'nope'"),
]


def _run(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    return excinfo.value.code


@pytest.mark.parametrize("driver", sorted(DRIVERS))
@pytest.mark.parametrize("argv, fragment", BAD_ARGS)
def test_sweep_cli_rejects_bad_arguments(capsys, driver, argv, fragment):
    # A later --scenario replaces the sweep's own.
    assert _run(DRIVERS[driver] + argv) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert fragment in err
    assert "Traceback" not in err


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_sweep_cli_rejects_bad_ltnc_scale_env(capsys, driver, monkeypatch):
    # An invalid LTNC_SCALE environment surfaces as a parser error too.
    monkeypatch.setenv("LTNC_SCALE", "huge")
    assert _run(DRIVERS[driver]) == 2
    err = capsys.readouterr().err
    assert "usage:" in err
    assert "LTNC_SCALE" in err
    assert "Traceback" not in err


def test_scheme_compare_rejects_unknown_scheme(capsys):
    # Every name is checked, and the error names what is registered.
    assert _run(["--scenario", "baseline[wc]", "churn[nope]"]) == 2
    err = capsys.readouterr().err
    assert "unknown scheme 'nope'" in err
    assert all(repr(name) in err for name in available_schemes())
    assert "Traceback" not in err


def _sweep(driver):
    """A quick two-trial sweep; the scheme race on two schemes only."""
    base = ["--trials", "2", "--seed", "7"]
    if driver == "scheme_compare":
        return base + ["--scenario", "baseline[wc]", "baseline[rlnc]"]
    return base + DRIVERS[driver]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_sweep_cli_checkpoint_stop_and_resume(
    capsys, driver, tmp_path, monkeypatch
):
    # Stopping early exits with status 3 and leaves checkpoints;
    # resuming completes and prints the same JSON as an uninterrupted
    # run.
    monkeypatch.setenv("LTNC_SCALE", "quick")
    base = _sweep(driver)
    assert main(base) == 0
    captured = capsys.readouterr()
    golden = captured.out
    assert len(json.loads(golden)) > 1  # keyed by scenario name
    assert "avg_complete" in captured.err  # the comparison table

    ckpt = str(tmp_path / driver)
    fleet = base + ["--shards", "2", "--checkpoint-dir", ckpt]
    assert main(fleet + ["--stop-after-shards", "1"]) == 3
    captured = capsys.readouterr()
    assert "rerun with --resume" in captured.err
    assert len(list((tmp_path / driver).glob("shard-*.json"))) == 1

    assert main(fleet + ["--resume"]) == 0
    assert capsys.readouterr().out == golden


def test_sweep_cli_tracing_and_progress_leave_table_unchanged(
    capsys, tmp_path, monkeypatch
):
    # Observability flags are free: the traced + progress run prints
    # the same JSON, and drops its artifacts where asked.
    monkeypatch.setenv("LTNC_SCALE", "quick")
    base = ["--trials", "2", "--seed", "7", "--scenario", "baseline[wc]"]
    assert main(base) == 0
    golden = capsys.readouterr().out

    traces = tmp_path / "traces"
    ckpt = tmp_path / "ckpt"
    observed = base + [
        "--trace-dir", str(traces),
        "--progress",
        "--checkpoint-dir", str(ckpt),
    ]
    assert main(observed) == 0
    captured = capsys.readouterr()
    assert captured.out == golden
    assert "trials/s" in captured.err  # the live progress lines
    assert len(list(traces.glob("trace-*.jsonl"))) == 2  # one per trial

    payload = json.loads((ckpt / "progress.json").read_text())
    assert payload["shards_done"] == payload["shards_total"]

    from repro.experiments import tracestats

    argv = [str(p) for p in sorted(traces.glob("trace-*.jsonl"))]
    assert tracestats.main(["--validate"] + argv) == 0


def test_sweep_cli_telemetry_and_compressed_traces(
    capsys, tmp_path, monkeypatch
):
    # --telemetry-dir and --trace-compress are free too: same JSON,
    # plus a validating telemetry.json and .jsonl.gz traces.
    monkeypatch.setenv("LTNC_SCALE", "quick")
    base = ["--trials", "2", "--seed", "7", "--scenario", "baseline[wc]"]
    assert main(base) == 0
    golden = capsys.readouterr().out

    traces = tmp_path / "traces"
    telemetry = tmp_path / "telemetry"
    observed = base + [
        "--trace-dir", str(traces),
        "--trace-compress",
        "--telemetry-dir", str(telemetry),
    ]
    assert main(observed) == 0
    assert capsys.readouterr().out == golden
    assert len(list(traces.glob("trace-*.jsonl.gz"))) == 2

    from repro.experiments import tracestats
    from repro.obs.telemetry import read_telemetry, validate_telemetry

    payload = read_telemetry(telemetry / "telemetry.json")
    validate_telemetry(payload)
    assert all(
        section["n_trials"] == 2
        for section in payload["scenarios"].values()
    )
    argv = [str(p) for p in sorted(traces.glob("trace-*.jsonl.gz"))]
    assert tracestats.main(
        ["--validate", "--telemetry", str(telemetry / "telemetry.json")]
        + argv
    ) == 0
