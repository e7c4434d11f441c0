"""Seeded-violation corpus: every linter rule demonstrably fires.

Each rule has a fixture pair under ``tests/fixtures/lint/``: a
``*_violation.py`` that must trip exactly that rule (and no other), and
a ``*_clean.py`` twin exercising the sanctioned alternative that must
lint clean.  Fixtures are linted *as if* they lived under
``src/repro/`` via the engine's logical-path override; the corpus
directory itself is excluded from directory walks so the repo
self-check never sees these deliberate violations.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.engine import iter_python_files, lint_file
from repro.analysis.rules import RULES, RULES_BY_CODE

CORPUS = pathlib.Path(__file__).parent / "fixtures" / "lint"

#: (rule code, logical path the fixture pretends to live at).  LTNC004
#: only applies inside repro.obs and LTNC008 inside repro.core,
#: repro.lt and repro.baselines; every other rule scopes to src/repro.
CASES = [
    ("LTNC001", "src/repro/_fixture.py"),
    ("LTNC002", "src/repro/_fixture.py"),
    ("LTNC003", "src/repro/_fixture.py"),
    ("LTNC004", "src/repro/obs/_fixture.py"),
    ("LTNC005", "src/repro/_fixture.py"),
    ("LTNC006", "src/repro/_fixture.py"),
    ("LTNC007", "src/repro/_fixture.py"),
    ("LTNC008", "src/repro/core/_fixture.py"),
]


def _fixture(code: str, kind: str) -> pathlib.Path:
    path = CORPUS / f"{code.lower()}_{kind}.py"
    assert path.is_file(), f"missing corpus fixture {path}"
    return path


def test_corpus_covers_every_rule():
    assert {code for code, _ in CASES} == set(RULES_BY_CODE)


@pytest.mark.parametrize(("code", "logical"), CASES)
def test_violation_fixture_trips_exactly_its_rule(code, logical):
    findings = lint_file(_fixture(code, "violation"), RULES, logical=logical)
    assert findings, f"{code} fixture produced no findings"
    assert {f.code for f in findings} == {code}


@pytest.mark.parametrize(("code", "logical"), CASES)
def test_clean_twin_lints_clean(code, logical):
    findings = lint_file(_fixture(code, "clean"), RULES, logical=logical)
    assert findings == [], [f.render() for f in findings]


@pytest.mark.parametrize(("code", "logical"), CASES)
def test_rule_fires_at_a_real_location(code, logical):
    for finding in lint_file(_fixture(code, "violation"), RULES, logical=logical):
        assert finding.line >= 1
        assert finding.path == logical
        assert finding.context, "finding should carry its source line"


def test_corpus_is_invisible_to_directory_walks():
    seen = list(iter_python_files([CORPUS.parent.parent]))  # tests/
    assert not any(CORPUS in p.parents for p in seen)


def test_corpus_files_lint_when_named_explicitly():
    path = _fixture("LTNC001", "violation")
    assert list(iter_python_files([path])) == [path]
