"""Tests for the bench-trajectory regression gate (benchdiff).

The gate's contracts: a report compared with itself passes (exit 0); an
injected ≥2× slowdown on any rate row fails (exit 1); ``--warn-only``
reports the same rows but exits 0 (with CI annotations); schema-invalid
input exits 2 before any comparison; ``--history`` diffs the two most
recent reports; ``--json`` writes atomically.
"""

import json

import pytest

from repro.experiments import benchdiff
from repro.experiments.benchdiff import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_REGRESSION,
    diff_reports,
    extract_rows,
    history_window,
    latest_pair,
    trend_diff,
)
from repro.experiments.perfbench import run_perfbench


@pytest.fixture(scope="module")
def report():
    return run_perfbench(
        profile="quick",
        seed=7,
        ks=(16,),
        schemes=("wc",),
    )


def _write(path, payload):
    path.write_text(json.dumps(payload, sort_keys=True))
    return str(path)


def _slowed(report, factor=2.0):
    slow = json.loads(json.dumps(report))
    entry = slow["microbench"]["rref_insert_reduce"]["k=16"]
    entry["ops_per_sec"] = round(entry["ops_per_sec"] / factor, 1)
    return slow


# -- row extraction ------------------------------------------------------
def test_extract_rows_flattens_every_rate_family(report):
    rows = extract_rows(report)
    assert "microbench.rref_insert_reduce[k=16].ops_per_sec" in rows
    assert "microbench.bitvector[k=16].ixor_per_sec" in rows
    assert "microbench.decode[k=16].gauss_packets_per_sec" in rows
    assert "microbench.decode[k=16].bp_packets_per_sec" in rows
    assert "end_to_end[wc].rounds_per_sec" in rows
    assert "fleet.trials_per_sec" in rows
    assert all(v > 0 for v in rows.values())
    # Absolute wall times never become rows.
    assert not any("seconds" in name for name in rows)


def test_diff_reports_flags_slowdown_not_speedup(report):
    slow = _slowed(report, factor=2.0)
    diff = diff_reports(report, slow)
    regressed = [r for r in diff["rows"] if r["regressed"]]
    assert [r["name"] for r in regressed] == [
        "microbench.rref_insert_reduce[k=16].ops_per_sec"
    ]
    assert regressed[0]["ratio"] == pytest.approx(0.5, abs=0.01)
    # The mirror comparison is a speedup: no regression.
    assert diff_reports(slow, report)["n_regressed"] == 0
    # Self-comparison is clean.
    assert diff_reports(report, report)["n_regressed"] == 0


def test_diff_reports_tolerance_is_configurable(report):
    mild = _slowed(report, factor=1.3)
    assert diff_reports(report, mild, max_slowdown=1.5)["n_regressed"] == 0
    assert diff_reports(report, mild, max_slowdown=1.1)["n_regressed"] == 1
    with pytest.raises(ValueError, match="max_slowdown"):
        diff_reports(report, report, max_slowdown=0.5)


def test_diff_reports_tolerates_schema_growth(report):
    grown = json.loads(json.dumps(report))
    grown["end_to_end"]["new_scheme"] = {"rounds_per_sec": 10.0}
    diff = diff_reports(report, grown)
    assert diff["n_regressed"] == 0
    assert diff["only_new"] == ["end_to_end[new_scheme].rounds_per_sec"]


# -- CLI -----------------------------------------------------------------
def test_cli_self_compare_ok_and_slowdown_fails(tmp_path, report, capsys):
    old = _write(tmp_path / "old.json", report)
    new = _write(tmp_path / "new.json", _slowed(report))
    assert benchdiff.main([old, old]) == EXIT_OK
    capsys.readouterr()
    assert benchdiff.main([old, new]) == EXIT_REGRESSION
    out = capsys.readouterr().out
    assert "REGRESSED" in out and "1/" in out


def test_cli_warn_only_annotates_but_passes(tmp_path, report, capsys):
    old = _write(tmp_path / "old.json", report)
    new = _write(tmp_path / "new.json", _slowed(report))
    assert benchdiff.main([old, new, "--warn-only"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "::warning::" in out and "REGRESSED" in out


def test_cli_rejects_invalid_reports(tmp_path, report, capsys):
    old = _write(tmp_path / "old.json", report)
    broken = json.loads(json.dumps(report))
    del broken["microbench"]
    bad = _write(tmp_path / "bad.json", broken)
    assert benchdiff.main([old, bad]) == EXIT_INVALID
    assert "invalid" in capsys.readouterr().err
    missing = str(tmp_path / "nope.json")
    assert benchdiff.main([old, missing]) == EXIT_INVALID
    not_json = tmp_path / "junk.json"
    not_json.write_text("{")
    assert benchdiff.main([old, str(not_json)]) == EXIT_INVALID


def test_cli_json_output_is_atomic(tmp_path, report):
    old = _write(tmp_path / "old.json", report)
    out = tmp_path / "diff.json"
    assert benchdiff.main([old, old, "--json", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["suite"] == "ltnc-benchdiff"
    assert payload["n_regressed"] == 0 and payload["n_rows"] > 0
    assert not list(tmp_path.glob("*.tmp*"))


def test_cli_history_mode_uses_two_most_recent(tmp_path, report, capsys):
    history = tmp_path / "history"
    history.mkdir()
    _write(history / "bench-20260101T000000Z.json", _slowed(report, 4.0))
    _write(history / "bench-20260102T000000Z.json", report)
    _write(history / "bench-20260103T000000Z.json", _slowed(report))
    # Diffs day 2 -> day 3 (the 4x-slow day-1 report is out of window).
    assert benchdiff.main(["--history", str(history)]) == EXIT_REGRESSION
    assert "bench-20260102T000000Z" in capsys.readouterr().out
    # A single report is not enough history.
    solo = tmp_path / "solo"
    solo.mkdir()
    _write(solo / "bench-1.json", report)
    assert benchdiff.main(["--history", str(solo)]) == EXIT_INVALID
    with pytest.raises(ValueError, match="at least two"):
        latest_pair(solo)


def test_history_tie_break_is_deterministic(tmp_path, report):
    # Two reports sharing one UTC stamp (same-second rerun, or a copy
    # made by hand): the pair must not depend on directory-listing
    # order.  Lexicographic filename breaks the tie — "...Z.rerun.json"
    # sorts after the plain "...Z.json", so it is the newer side.
    history = tmp_path / "history"
    history.mkdir()
    _write(history / "bench-20260101T000000Z.json", report)
    _write(history / "bench-20260102T000000Z.json", report)
    _write(history / "bench-20260102T000000Z.rerun.json", report)
    old, new = latest_pair(history)
    assert old.name == "bench-20260102T000000Z.json"
    assert new.name == "bench-20260102T000000Z.rerun.json"
    # The stamp governs recency even when a prefix would sort wrong
    # lexicographically: "archive-..." < "bench-..." by name, but its
    # stamp is the newest of all three.
    _write(history / "archive-20260103T000000Z.json", report)
    old, new = latest_pair(history)
    assert new.name == "archive-20260103T000000Z.json"
    assert old.name == "bench-20260102T000000Z.rerun.json"


def _slowed_all(report, factor):
    """Scale every extracted rate down by *factor* (uniform drift)."""
    slow = json.loads(json.dumps(report))
    for section in slow["microbench"].values():
        for entry in section.values():
            for key, value in entry.items():
                if key.endswith("_per_sec"):
                    entry[key] = value / factor
    for entry in slow["end_to_end"].values():
        entry["rounds_per_sec"] /= factor
    slow["fleet"]["trials_per_sec"] /= factor
    for row in slow.get("n_scaling", {}).values():
        for side in ("scalar", "batched"):
            if side in row:
                row[side]["rounds_per_sec"] /= factor
    return slow


# -- trend window --------------------------------------------------------
def test_trend_diff_catches_drift_pairwise_diffs_miss(report):
    # Four reports, each step 1.25x slower: every pairwise diff is
    # inside the 1.5x tolerance, but the cumulative ~1.95x drift trips
    # the window-median trend.
    steps = [_slowed_all(report, 1.25**i) for i in range(4)]
    for old, new in zip(steps, steps[1:]):
        assert diff_reports(old, new)["n_regressed"] == 0
    trend = trend_diff(steps)
    assert trend["window"] == 4
    assert trend["n_rows"] > 0
    assert trend["n_regressed"] == trend["n_rows"]  # uniform drift
    # Median baseline: one slow outlier mid-window does not regress a
    # healthy newest report.
    noisy = [report, _slowed_all(report, 4.0), report, report]
    assert trend_diff(noisy)["n_regressed"] == 0
    with pytest.raises(ValueError, match="at least two"):
        trend_diff([report])
    with pytest.raises(ValueError, match="max_slowdown"):
        trend_diff(steps, max_slowdown=0.9)


def test_history_window_selection(tmp_path, report):
    history = tmp_path / "history"
    history.mkdir()
    names = [f"bench-2026010{d}T000000Z.json" for d in range(1, 5)]
    for name in names:
        _write(history / name, report)
    assert [p.name for p in history_window(history, 3)] == names[-3:]
    # Oversized window: early trajectories use all available history.
    assert [p.name for p in history_window(history, 99)] == names
    with pytest.raises(ValueError, match="window"):
        history_window(history, 1)
    solo = tmp_path / "solo"
    solo.mkdir()
    _write(solo / "bench-1.json", report)
    with pytest.raises(ValueError, match="at least two"):
        history_window(solo, 3)


def test_cli_window_mode_flags_trend_drift(tmp_path, report, capsys):
    history = tmp_path / "history"
    history.mkdir()
    for i in range(4):
        _write(
            history / f"bench-2026010{i + 1}T000000Z.json",
            _slowed_all(report, 1.25**i),
        )
    # The latest pair alone is clean...
    assert benchdiff.main(["--history", str(history)]) == EXIT_OK
    capsys.readouterr()
    # ...but the 4-report window catches the drift.
    out_json = tmp_path / "diff.json"
    assert (
        benchdiff.main(
            ["--history", str(history), "--window", "4", "--json", str(out_json)]
        )
        == EXIT_REGRESSION
    )
    out = capsys.readouterr().out
    assert "trend over last 4 reports" in out and "DRIFTED" in out
    payload = json.loads(out_json.read_text())
    assert payload["trend"]["suite"] == "ltnc-benchdiff-trend"
    assert payload["trend"]["n_regressed"] > 0
    # warn-only: same annotations, exit 0.
    assert (
        benchdiff.main(
            ["--history", str(history), "--window", "4", "--warn-only"]
        )
        == EXIT_OK
    )
    assert "::warning::bench trend drift" in capsys.readouterr().out


def test_cli_window_argument_validation(tmp_path, report, capsys):
    old = _write(tmp_path / "old.json", report)
    with pytest.raises(SystemExit):
        benchdiff.main([old, old, "--window", "3"])  # needs --history
    capsys.readouterr()
    with pytest.raises(SystemExit):
        benchdiff.main(["--history", str(tmp_path), "--window", "1"])
    capsys.readouterr()


def test_cli_argument_validation(tmp_path, report, capsys):
    old = _write(tmp_path / "old.json", report)
    with pytest.raises(SystemExit):
        benchdiff.main([old])  # one path, no --history
    capsys.readouterr()
    with pytest.raises(SystemExit):
        benchdiff.main([old, old, "--history", str(tmp_path)])
    capsys.readouterr()
    with pytest.raises(SystemExit):
        benchdiff.main([old, old, "--max-slowdown", "0.5"])
