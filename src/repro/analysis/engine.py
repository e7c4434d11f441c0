"""Rule engine for the determinism-contract linter.

The repo's reproduction claims — worker-count/shard-count invariance,
byte-identical artifacts across resume cycles, rng-stream stability
across refactors — rest on conventions no type checker sees: all
randomness through :mod:`repro.rng`, monotonic clocks in worker code,
atomic artifact writes, observability isolation.  This engine walks
Python sources with :mod:`ast` and applies the rules in
:mod:`repro.analysis.rules`, so those conventions fail a lint run
instead of a golden-file archaeology session months later.

Deliberately stdlib-only: the linter itself must never grow a
third-party dependency that makes it unrunnable in a bare checkout.

The one escape hatch is an inline suppression, auditable in review:
``# ltnc: allow[LTNCnnn] reason`` on the offending line (or alone on
the line above it).  The reason is mandatory; a reasonless suppression
is itself reported (LTNC000) and does not suppress anything.  A
suppression whose rule no longer fires on its line is *also* reported
— dead allows otherwise accumulate and silently pre-authorize future
violations.
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Iterable, Iterator, Sequence

__all__ = [
    "BAD_SUPPRESSION_CODE",
    "REPORT_FORMAT",
    "REPORT_VERSION",
    "AnalysisResult",
    "Finding",
    "Module",
    "Suppression",
    "iter_python_files",
    "lint_file",
    "lint_module",
    "lint_source",
    "logical_path",
    "run_analysis",
    "validate_report",
]

REPORT_FORMAT = "ltnc-analysis-report"
REPORT_VERSION = 2

#: Engine diagnostics (unparsable file, malformed suppression) carry
#: this pseudo-rule code.  It cannot be suppressed.
BAD_SUPPRESSION_CODE = "LTNC000"

#: Never walked when expanding directory arguments.
SKIP_DIRS = {
    ".git",
    "__pycache__",
    ".hypothesis",
    ".pytest_cache",
    ".benchmarks",
    ".claude",
    "build",
    "dist",
}

_SUPPRESS_RE = re.compile(
    r"#\s*ltnc:\s*allow\[(?P<codes>[A-Z0-9,\s]+)\]\s*(?P<reason>.*)$"
)


@dataclasses.dataclass(frozen=True)
class Finding:
    """One contract violation at one source location."""

    code: str
    path: str  # repo-relative posix path (the rule-scoping identity)
    line: int
    col: int
    message: str
    context: str = ""  # stripped source line

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "context": self.context,
        }


@dataclasses.dataclass(frozen=True)
class Suppression:
    """One parsed ``# ltnc: allow[...]`` comment."""

    line: int
    codes: frozenset[str]
    reason: str
    standalone: bool  # comment-only line: also covers the next line

    def covers(self, finding: Finding) -> bool:
        if finding.code not in self.codes:
            return False
        if finding.line == self.line:
            return True
        return self.standalone and finding.line == self.line + 1


class Module:
    """A parsed source file plus the logical path rules scope on.

    The *logical* path is repo-relative and posix-style
    (``src/repro/obs/tracer.py``), so rule allowlists are stable
    however the linter was invoked.  Tests pass an explicit override to
    lint fixture files *as if* they lived in the tree.
    """

    def __init__(self, path: pathlib.Path, source: str, logical: str) -> None:
        self.path = path
        self.source = source
        self.logical = logical
        self.lines = source.splitlines()
        self.tree: ast.Module | None = None
        self.parse_error: SyntaxError | None = None
        try:
            self.tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            self.parse_error = exc

    @classmethod
    def from_path(
        cls, path: str | pathlib.Path, logical: str | None = None
    ) -> "Module":
        path = pathlib.Path(path)
        return cls(
            path,
            path.read_text(encoding="utf-8"),
            logical if logical is not None else logical_path(path),
        )

    @classmethod
    def from_source(cls, source: str, logical: str) -> "Module":
        return cls(pathlib.Path(logical), source, logical)

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def finding(
        self, code: str, node: ast.AST, message: str
    ) -> Finding:
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(
            code=code,
            path=self.logical,
            line=line,
            col=col,
            message=message,
            context=self.line_text(line),
        )

    def suppressions(self) -> tuple[list[Suppression], list[Finding]]:
        """Parsed suppression comments plus malformed-suppression findings."""
        parsed: list[Suppression] = []
        bad: list[Finding] = []
        for lineno, raw in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(raw)
            if match is None:
                continue
            codes = frozenset(
                c.strip() for c in match.group("codes").split(",") if c.strip()
            )
            reason = match.group("reason").strip()
            if not codes or not reason:
                bad.append(
                    Finding(
                        code=BAD_SUPPRESSION_CODE,
                        path=self.logical,
                        line=lineno,
                        col=raw.index("#"),
                        message=(
                            "suppression needs both a rule code and a "
                            "reason: `# ltnc: allow[LTNCnnn] why this "
                            "site is exempt`"
                        ),
                        context=raw.strip(),
                    )
                )
                continue
            parsed.append(
                Suppression(
                    line=lineno,
                    codes=codes,
                    reason=reason,
                    standalone=raw.lstrip().startswith("#"),
                )
            )
        return parsed, bad


def logical_path(path: pathlib.Path) -> str:
    """*path* relative to the enclosing project root, posix-style.

    The root is the nearest ancestor holding a ``pyproject.toml``; a
    file outside any project falls back to its bare name (rules scoped
    to ``src/repro/`` then simply do not apply).
    """
    p = pathlib.Path(path).resolve()
    for parent in p.parents:
        if (parent / "pyproject.toml").is_file():
            return p.relative_to(parent).as_posix()
    return p.name


def _is_corpus_dir(path: pathlib.Path) -> bool:
    """The seeded-violation fixture corpus: test data, never lintable."""
    return path.name == "lint" and path.parent.name == "fixtures"


def iter_python_files(
    paths: Sequence[str | pathlib.Path],
) -> Iterator[pathlib.Path]:
    """Expand CLI path arguments into the Python files to lint.

    Explicitly named files are always yielded (that is how the fixture
    tests lint the corpus); directories are walked deterministically,
    skipping :data:`SKIP_DIRS` and the fixture corpus.
    """
    for arg in paths:
        root = pathlib.Path(arg)
        if root.is_file():
            yield root
            continue
        stack = [root]
        while stack:
            directory = stack.pop()
            children = sorted(directory.iterdir(), reverse=True)
            for child in children:
                if child.is_dir():
                    if child.name in SKIP_DIRS or _is_corpus_dir(child):
                        continue
                    stack.append(child)
                elif child.suffix == ".py":
                    yield child


def lint_module(mod: Module, rules: Iterable[object]) -> list[Finding]:
    """All findings for one module — rule hits plus engine diagnostics.

    Inline suppressions are applied here (suppressed findings are
    dropped).  Returns the *unsuppressed* findings.
    """
    if mod.parse_error is not None:
        err = mod.parse_error
        return [
            Finding(
                code=BAD_SUPPRESSION_CODE,
                path=mod.logical,
                line=err.lineno or 1,
                col=(err.offset or 1) - 1,
                message=f"file does not parse: {err.msg}",
                context=(err.text or "").strip(),
            )
        ]
    suppressions, bad = mod.suppressions()
    findings: list[Finding] = list(bad)
    used: set[int] = set()
    active = [rule for rule in rules if rule.applies(mod.logical)]
    for rule in active:
        for finding in rule.check(mod):
            if finding.code != BAD_SUPPRESSION_CODE:
                covering = [
                    i
                    for i, s in enumerate(suppressions)
                    if s.covers(finding)
                ]
                if covering:
                    used.update(covering)
                    continue
            findings.append(finding)
    # A suppression whose rule no longer fires on its line is dead code
    # hiding future violations; report it so it gets deleted.  Only
    # judged against the codes this run actually checked — a --rule
    # filter must not condemn suppressions for the rules it skipped.
    active_codes = {rule.code for rule in active}
    for i, s in enumerate(suppressions):
        if i in used:
            continue
        checkable = sorted(s.codes & active_codes)
        if not checkable:
            continue
        raw = mod.lines[s.line - 1]
        findings.append(
            Finding(
                code=BAD_SUPPRESSION_CODE,
                path=mod.logical,
                line=s.line,
                col=raw.index("#"),
                message=(
                    f"unused suppression: {', '.join(checkable)} no "
                    "longer fires on this line; delete the allow comment"
                ),
                context=raw.strip(),
            )
        )
    findings.sort(key=lambda f: (f.line, f.col, f.code))
    return findings


def lint_source(
    source: str, logical: str, rules: Iterable[object]
) -> list[Finding]:
    """Lint an in-memory source string under a logical path."""
    return lint_module(Module.from_source(source, logical), rules)


def lint_file(
    path: str | pathlib.Path,
    rules: Iterable[object],
    logical: str | None = None,
) -> list[Finding]:
    """Lint one file, optionally as if it lived at *logical*."""
    return lint_module(Module.from_path(path, logical=logical), rules)


# ----------------------------------------------------------------------
# The --json report
# ----------------------------------------------------------------------
def validate_report(
    payload: object, source: str = "report"
) -> dict[str, object]:
    """Check an ``ltnc-analysis-report`` v2 payload (the ``--json`` output)."""
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: report is not a JSON object")
    errors: list[str] = []
    if payload.get("format") != REPORT_FORMAT:
        errors.append(f"format {payload.get('format')!r} != {REPORT_FORMAT!r}")
    if payload.get("version") != REPORT_VERSION:
        errors.append(f"version {payload.get('version')!r} != {REPORT_VERSION}")
    for key in ("findings", "rules"):
        if not isinstance(payload.get(key), list):
            errors.append(f"{key} is not a list")
    counts = payload.get("counts")
    if not isinstance(counts, dict) or not all(
        isinstance(counts.get(k), int) for k in ("files", "findings")
    ):
        errors.append("counts needs integer files/findings")
    if errors:
        raise ValueError(f"{source}: invalid report: " + "; ".join(errors))
    return payload


# ----------------------------------------------------------------------
# Whole-tree runs
# ----------------------------------------------------------------------
@dataclasses.dataclass
class AnalysisResult:
    """Outcome of one linter run over a set of paths."""

    findings: list[Finding]  # unsuppressed → gate fails
    n_files: int

    @property
    def clean(self) -> bool:
        return not self.findings


def run_analysis(
    paths: Sequence[str | pathlib.Path], rules: Iterable[object]
) -> AnalysisResult:
    """Lint every Python file under *paths* with *rules*."""
    rules = list(rules)
    findings: list[Finding] = []
    n_files = 0
    for path in iter_python_files(paths):
        n_files += 1
        findings.extend(lint_module(Module.from_path(path), rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return AnalysisResult(findings=findings, n_files=n_files)
