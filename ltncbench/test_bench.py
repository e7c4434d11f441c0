"""Self-test of the repository benchmark.

Run from the root of a checkout (it is outside the tier-1 test paths and
takes under a minute)::

    python3 -m pytest -q ltncbench/test_bench.py

It drives every workload at ``--size tiny`` through the real command
line in both modes and checks the printed metrics against
``BENCHMARK.json`` and ``layers.json``; shows that each conservation
identity broken on purpose counts as a failed trial and that differing
work counts for one seed make a run incorrect; and shows that the
benchmark refuses to run, printing no result, without the program
source next to it.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import runset  # noqa: E402
import workloads as wl  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((BENCH_DIR / "layers.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(out: pathlib.Path, *args: str, root: pathlib.Path = ROOT):
    return subprocess.run(
        [sys.executable, "ltncbench/run.py", *args, "--out", str(out)],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def tiny(out: pathlib.Path, workload: str, trace: int, seed: int = 3) -> dict:
    proc = bench(
        out, "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--size", "tiny",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return {"report": "\n".join(lines[:-1]), "result": json.loads(lines[-1])}


def test_benchmark_json_follows_the_contract():
    assert list(DECLARED) == [
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    ]
    assert DECLARED["paths"] == ["ltncbench"]
    assert 1 <= DECLARED["run_seconds"] <= 60
    names = [w["name"] for w in DECLARED["workloads"]]
    assert names == list(wl.WORKLOADS)
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
        assert "\n" not in w["why"]
    e2e = {m["name"]: m for m in DECLARED["end_to_end"]}
    for m in DECLARED["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in DECLARED["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    every = names + list(e2e) + [m["name"] for m in DECLARED["per_layer"]]
    assert len(every) == len(set(every))
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]), m
        assert m["better"] in ("higher", "lower")


def test_layer_map_covers_every_per_layer_metric():
    per_layer = {m["name"] for m in DECLARED["per_layer"]}
    assert set(LAYERS["per_layer"]) == per_layer
    e2e = {m["name"] for m in DECLARED["end_to_end"]}
    for name, info in LAYERS["per_layer"].items():
        assert info["layer"] in LAYERS["layers"], name
        assert info["moves"] == "reported only" or set(info["moves"]) <= e2e
        assert info["workload"] in (*wl.WORKLOADS, "all"), name
    assert list(LAYERS["workloads"]) == list(wl.WORKLOADS)
    for info in LAYERS["workloads"].values():
        assert set(info["runs"]) | set(info["bypasses"]) <= set(LAYERS["layers"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    run = tiny(tmp_path, workload, trace)
    result = run["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = DECLARED["end_to_end" if trace == 0 else "per_layer"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    printed = [(m["name"], m["unit"]) for m in declared]
    if trace == 0:
        printed.append(("failed_trial_frac", "ratio"))
    for name, unit in printed:
        line = rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$"
        assert re.search(line, run["report"], re.M), name
    if trace == 1:
        values = {n: m["value"] for n, m in result["metrics"].items()}
        plan = LAYERS["workloads"][workload]
        for name, info in LAYERS["per_layer"].items():
            if info["layer"] in plan["bypasses"] and name.endswith((".calls", ".s")):
                assert values[name] == 0, name
        for layer in plan["runs"]:
            assert any(
                values[n] for n, i in LAYERS["per_layer"].items() if i["layer"] == layer
            ), layer


def _tiny_results():
    sh = wl.SHAPES[("ltnc_baseline", "tiny")]
    p = wl.run_serial(sh, 5, 0.0, 2)
    assert not any(t.violations for t in p.trials)
    return [t.outcome for t in p.trials], sh.specs[0].max_rounds


def _break_sessions(r):
    r.aborted += 1


def _break_recoded(r):
    r.recoded_packets += 1


def _break_transfers(r):
    r.lost_transfers += 1


def _break_duplicates(r):
    r.duplicated_transfers = r.data_transfers - r.lost_transfers + 1


def _break_data_until_complete(r):
    node = next(iter(r.completion_rounds))
    r.data_until_complete[node] = r.k - 1


def _break_completion_round(r):
    node = next(iter(r.completion_rounds))
    r.completion_rounds[node] = r.rounds + 1


@pytest.mark.parametrize(
    "breaker",
    [
        _break_sessions,
        _break_recoded,
        _break_transfers,
        _break_duplicates,
        _break_data_until_complete,
        _break_completion_round,
    ],
)
def test_a_broken_identity_counts_as_a_failed_trial(breaker):
    results, max_rounds = _tiny_results()
    breaker(results[0])
    violations = [checks.check_result(r, max_rounds) for r in results]
    attempted, failed, notes = checks.tally(violations)
    assert (attempted, failed) == (2, 1) and notes


def test_a_broken_identity_in_a_fleet_record_counts_as_a_failed_trial():
    results, max_rounds = _tiny_results()
    record = results[0].key_metrics()
    assert checks.check_record(record, max_rounds) == []
    record["recoded_packets"] += 1
    assert checks.check_record(record, max_rounds)


def test_differing_work_counts_make_the_run_incorrect(tmp_path):
    assert tiny(tmp_path, "ltnc_baseline", 0)["result"]["correct"]
    (counts,) = (tmp_path / "counts").glob("ltnc_baseline-tiny-s3-t0-*.json")
    stored = json.loads(counts.read_text())
    stored["sessions"] += 1
    counts.write_text(json.dumps(stored))
    run = tiny(tmp_path, "ltnc_baseline", 0)
    assert not run["result"]["correct"]
    assert "work count sessions" in run["report"]


def test_runset_flags_differing_counts_and_wide_spreads():
    runs = [
        {"seed": 1, "result": {"metrics": {"x": {"value": v}}},
         "record": {"counts": {"rounds": r}}}
        for v, r in [(1.0, 5), (1.1, 5), (0.9, 5), (1.0, 6)]
    ]
    assert runset.count_mismatches(runs) == ["seed 1: rounds 5 vs 6"]
    table = runset.spread_table(runs, [{"name": "x", "unit": "s", "bound": 0.1}])
    assert table["x"]["median"] == 1.0 and table["x"]["spread"] > 0.1


def test_refuses_to_run_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        BENCH_DIR, tmp_path / "ltncbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = bench(
        tmp_path / "out", "--workload", "ltnc_baseline", "--seed", "1",
        "--seconds", "1", root=tmp_path,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
