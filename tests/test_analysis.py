"""Determinism-contract linter: engine, CLI, registry and self-check.

The headline test is :func:`test_repo_lints_clean` — the tier-1 gate
that the tree itself satisfies every contract the linter encodes.  The
rest pins the machinery: suppression semantics, the schema registry's
runtime cross-check, and the CLI's 0/1/2 exit convention.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.analysis.cli import main, report_payload
from repro.analysis.engine import (
    BAD_SUPPRESSION_CODE,
    lint_source,
    run_analysis,
    validate_report,
)
from repro.analysis.rules import RULES, RULES_BY_CODE
from repro.analysis.schemas import SCHEMAS, contract_for, verify_registry
from repro.obs.progress import validate_progress
from repro.scenarios.fleet import validate_checkpoint

REPO = pathlib.Path(__file__).parent.parent


# ----------------------------------------------------------------------
# The repo holds its own contracts
# ----------------------------------------------------------------------
def test_repo_lints_clean():
    result = run_analysis([REPO / "src", REPO / "tests"], RULES)
    assert result.n_files > 100  # walked the real tree, not an empty dir
    assert result.findings == [], "\n".join(
        f.render() for f in result.findings
    )


def test_linter_loads_no_numpy():
    # The linter is stdlib-only, and the lazy top-level package keeps it
    # so: CI's lint job installs no numpy.  Every public name still
    # resolves on first use.
    code = (
        "import sys\n"
        "import repro.analysis.cli\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded'\n"
        "assert 'repro.gossip.simulator' not in sys.modules\n"
        "from repro import *\n"
        "import repro\n"
        "assert set(repro.__all__) == {'__version__', *repro._EXPORTS}\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("module", ["tracestats", "benchdiff"])
def test_artifact_tools_load_no_simulator(module):
    # Importing one harness module runs the package __init__ first, so
    # repro.experiments re-exports nothing: a trace or bench-report
    # tool must not pay for the simulator it only reads the output of.
    code = (
        "import sys\n"
        f"import repro.experiments.{module}\n"
        "loaded = sorted(m for m in sys.modules if m.startswith(\n"
        "    ('repro.gossip', 'repro.core', 'repro.scenarios')))\n"
        "assert not loaded, loaded\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_schema_registry_agrees_with_live_modules():
    assert verify_registry() == []


def test_registry_covers_known_artifacts():
    artifacts = {c.artifact for c in SCHEMAS}
    assert {
        "ltnc-trace",
        "ltnc-telemetry",
        "ltnc-fleet-progress",
        "ltnc-fleet-checkpoint",
        "ltnc-bench",
        "ltnc-analysis-report",
    } <= artifacts
    assert contract_for("ltnc-trace").version == 1


# ----------------------------------------------------------------------
# Suppression semantics
# ----------------------------------------------------------------------
SRC = "src/repro/_t.py"


def codes(source: str) -> list[str]:
    return [f.code for f in lint_source(source, SRC, RULES)]


def test_trailing_suppression_silences_the_line():
    src = (
        "import time\n"
        "t = time.time()  # ltnc: allow[LTNC002] host stamp for humans\n"
    )
    assert codes(src) == []


def test_standalone_suppression_covers_next_line_only():
    src = (
        "import time\n"
        "# ltnc: allow[LTNC002] host stamp for humans\n"
        "t = time.time()\n"
        "u = time.time()\n"
    )
    assert codes(src) == ["LTNC002"]  # only the uncovered second read


def test_wrong_code_does_not_suppress():
    # The finding survives AND the mistargeted allow is itself reported
    # as unused — LTNC003 never fires on this line.
    src = "import time\nt = time.time()  # ltnc: allow[LTNC003] wrong rule\n"
    assert sorted(codes(src)) == [BAD_SUPPRESSION_CODE, "LTNC002"]


def test_reasonless_suppression_reports_and_keeps_finding():
    src = "import time\nt = time.time()  # ltnc: allow[LTNC002]\n"
    got = codes(src)
    assert BAD_SUPPRESSION_CODE in got and "LTNC002" in got


def test_unused_suppression_is_reported():
    src = (
        "import time\n"
        "# ltnc: allow[LTNC002] stale: the wall-clock read moved away\n"
        "t = time.monotonic()\n"
    )
    got = lint_source(src, SRC, RULES)
    assert [f.code for f in got] == [BAD_SUPPRESSION_CODE]
    assert "unused suppression" in got[0].message
    assert "LTNC002" in got[0].message
    assert got[0].line == 2


def test_used_suppression_is_not_reported_as_unused():
    src = (
        "import time\n"
        "t = time.time()  # ltnc: allow[LTNC002] host stamp for humans\n"
    )
    assert codes(src) == []


def test_unused_suppression_not_judged_under_rule_filter():
    # Linting with only LTNC003 active cannot tell whether the LTNC002
    # allow is dead — the rule it suppresses never ran.
    src = (
        "import time\n"
        "t = time.monotonic()  # ltnc: allow[LTNC002] host stamp\n"
    )
    only_003 = [RULES_BY_CODE["LTNC003"]]
    assert lint_source(src, SRC, only_003) == []
    assert [f.code for f in lint_source(src, SRC, RULES)] == [
        BAD_SUPPRESSION_CODE
    ]


def test_sorted_json_rule_semantics():
    assert codes("import json\ns = json.dumps({'b': 1})\n") == ["LTNC007"]
    assert codes(
        "import json\ns = json.dumps({'b': 1}, sort_keys=False)\n"
    ) == ["LTNC007"]
    assert codes(
        "import json\ns = json.dumps({'b': 1}, sort_keys=True)\n"
    ) == []
    # **kwargs pass-throughs are the caller's decision.
    assert codes(
        "import json\n"
        "def to_json(d, **kw):\n"
        "    return json.dumps(d, **kw)\n"
    ) == []
    # json.loads and other json.* calls are out of scope.
    assert codes("import json\nd = json.loads('{}')\n") == []


def test_set_order_rule_semantics():
    core = "src/repro/core/_t.py"

    def set_order(source: str, logical: str = core) -> list[str]:
        return [f.code for f in lint_source(source, logical, RULES)]

    annotated = "class C:\n    def __init__(self):\n        self.s: set[int] = set()\n"
    assert set_order(annotated + "        list(self.s)\n") == ["LTNC008"]
    assert set_order(annotated + "        next(iter(self.s))\n") == ["LTNC008"]
    assert set_order(annotated + "        sorted(self.s), min(self.s)\n") == []
    assert set_order(annotated + "        len(self.s), 1 in self.s\n") == []
    # Containers of sets: the subscript is the set.
    assert set_order("b: dict[int, set[int]] = {}\nt = tuple(b[0])\n") == [
        "LTNC008"
    ]
    assert set_order("b: dict[int, set[int]] = {}\nt = list(b)\n") == []
    assert set_order("b: dict[frozenset[int], int] = {}\nt = list(b[x])\n") == []
    # A parameter annotation holds in its own function only.
    assert set_order(
        "def f(s: set[int]):\n    return 0\n"
        "def g(s):\n    return list(s)\n"
    ) == []
    # Scope: the LTNC packages only.
    assert set_order("t = list({1, 2})\n", "src/repro/lt/_t.py") == ["LTNC008"]
    assert set_order("t = list({1, 2})\n", "src/repro/baselines/_t.py") == [
        "LTNC008"
    ]
    assert set_order("t = list({1, 2})\n", "src/repro/gossip/_t.py") == []


def test_rules_do_not_apply_outside_src():
    src = "import random\nimport time\nt = time.time()\n"
    assert lint_source(src, "tests/test_x.py", RULES) == []


def test_unparsable_file_is_one_engine_diagnostic():
    got = lint_source("def broken(:\n", SRC, RULES)
    assert [f.code for f in got] == [BAD_SUPPRESSION_CODE]
    assert "does not parse" in got[0].message


# ----------------------------------------------------------------------
# New runtime validators (progress / checkpoint)
# ----------------------------------------------------------------------
def good_progress() -> dict:
    return {
        "format": "ltnc-fleet-progress",
        "version": 1,
        "scenario": "fig3-ltnc",
        "shard_index": 2,
        "shards_done": 3,
        "shards_total": 8,
        "trials_done": 12,
        "trials_total": 64,
        "replayed": False,
        "trials_per_sec": 5.5,
        "eta_seconds": None,
        "updated_unix": 1.0,  # extra keys tolerated
    }


def test_validate_progress_accepts_real_payload():
    assert validate_progress(good_progress())


@pytest.mark.parametrize(
    "mutate",
    [
        {"format": "nope"},
        {"version": 2},
        {"scenario": 7},
        {"shard_index": -1},
        {"trials_done": True},
        {"replayed": "yes"},
        {"eta_seconds": "soon"},
    ],
)
def test_validate_progress_rejects(mutate):
    payload = {**good_progress(), **mutate}
    with pytest.raises(ValueError, match="invalid progress"):
        validate_progress(payload)


def good_checkpoint() -> dict:
    return {
        "format": "ltnc-fleet-checkpoint",
        "version": 2,
        "fingerprint": "abc123",
        "scenario": {"name": "fig3-ltnc"},
        "shard_index": 0,
        "n_shards": 4,
        "trial_indices": [0, 4, 8],
        "trials": [{"rounds": 10}],
    }


def test_validate_checkpoint_accepts_real_payload():
    assert validate_checkpoint(good_checkpoint())
    section = {"n_trials": 3, "counters": {"rounds": 30}}
    assert validate_checkpoint({**good_checkpoint(), "telemetry": section})


@pytest.mark.parametrize(
    "mutate",
    [
        {"format": "nope"},
        {"fingerprint": None},
        {"scenario": "fig3"},
        {"n_shards": -2},
        {"trial_indices": [0, "1"]},
        {"trials": [["not", "a", "dict"]]},
        {"trials": [{"rounds": [1, 2]}]},
        {"telemetry": {"n_trials": 0, "counters": {}}},
    ],
)
def test_validate_checkpoint_rejects(mutate):
    payload = {**good_checkpoint(), **mutate}
    with pytest.raises(ValueError, match="invalid checkpoint"):
        validate_checkpoint(payload)


# ----------------------------------------------------------------------
# CLI exit codes and artifacts
# ----------------------------------------------------------------------
@pytest.fixture
def project(tmp_path, monkeypatch):
    """A throwaway project root with one clean and one dirty module."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 't'\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "good.py").write_text("VALUE = 1\n")
    (pkg / "bad.py").write_text("import random\nimport time\nt = time.time()\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_cli_exit_1_on_findings_and_json_report(project, capsys):
    assert main(["src", "--json", "report.json"]) == 1
    out = capsys.readouterr().out
    assert "LTNC001" in out and "LTNC002" in out
    report = json.loads((project / "report.json").read_text())
    validate_report(report)
    assert report["counts"]["findings"] == 2
    assert {f["code"] for f in report["findings"]} == {"LTNC001", "LTNC002"}


def test_cli_rule_filter(project, capsys):
    assert main(["src", "--rule", "LTNC001"]) == 1
    out = capsys.readouterr().out
    assert "LTNC001" in out and "LTNC002" not in out


def test_cli_exit_0_when_clean(project):
    (project / "src" / "repro" / "bad.py").unlink()
    assert main(["src"]) == 0


def test_cli_exit_2_on_unknown_rule(project):
    with pytest.raises(SystemExit) as exc:
        main(["src", "--rule", "LTNC999"])
    assert exc.value.code == 2


def test_cli_exit_2_on_missing_path(project):
    with pytest.raises(SystemExit) as exc:
        main(["no/such/dir"])
    assert exc.value.code == 2


def test_cli_exit_2_on_unknown_flag(project):
    with pytest.raises(SystemExit) as exc:
        main(["src", "--no-baseline"])
    assert exc.value.code == 2


def test_cli_list_rules(project, capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in RULES_BY_CODE:
        assert code in out


def test_report_payload_shape():
    result = run_analysis([REPO / "src" / "repro" / "analysis"], RULES)
    payload = report_payload(result, RULES, ["src"])
    validate_report(payload)
    assert payload["version"] == 2
    assert set(payload) == {
        "format", "version", "paths", "rules", "findings", "counts"
    }
    assert set(payload["counts"]) == {"files", "findings"}
    assert payload["counts"]["files"] == result.n_files
