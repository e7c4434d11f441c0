"""Command-line front end: ``python -m repro.analysis``.

Exit statuses follow the benchdiff convention: 0 = clean, 1 = at least
one unsuppressed finding, 2 = bad invocation (unknown flag or rule,
missing path).  ``--json`` writes a schema-versioned
``ltnc-analysis-report`` v2 payload (atomically), which CI validates
and uploads as the lint job's artifact.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Sequence

from repro.analysis.engine import (
    REPORT_FORMAT,
    REPORT_VERSION,
    AnalysisResult,
    run_analysis,
)
from repro.analysis.rules import RULES, RULES_BY_CODE
from repro.fileio import atomic_write_text

__all__ = ["build_parser", "main", "report_payload"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Determinism-contract linter: machine-checks the "
        "repo's reproducibility invariants (rng derive trees, monotonic "
        "clocks, atomic artifact writes, obs isolation, the env "
        "gateway, schema registration).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: src and tests, "
        "when they exist under the current directory)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="CODE",
        help="run only this rule (repeatable), e.g. --rule LTNC003",
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="OUT",
        help="also write the ltnc-analysis-report payload here "
        "(atomic write)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--verify-schemas",
        action="store_true",
        help="also run the runtime schema-registry cross-check "
        "(imports every registered writer module)",
    )
    return parser


def report_payload(
    result: AnalysisResult, rules: Sequence[object], paths: Sequence[str]
) -> dict[str, object]:
    """The ``ltnc-analysis-report`` v2 payload for one run."""
    return {
        "format": REPORT_FORMAT,
        "version": REPORT_VERSION,
        "paths": sorted(str(p) for p in paths),
        "rules": [rule.describe() for rule in rules],
        "findings": [f.to_dict() for f in result.findings],
        "counts": {
            "files": result.n_files,
            "findings": len(result.findings),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.code}  {rule.name}: {rule.summary}")
        return EXIT_CLEAN

    rules: Sequence[object] = RULES
    if args.rule:
        unknown = [code for code in args.rule if code not in RULES_BY_CODE]
        if unknown:
            parser.error(
                f"unknown rule code(s) {', '.join(unknown)}; "
                f"known: {', '.join(sorted(RULES_BY_CODE))}"
            )
        rules = [RULES_BY_CODE[code] for code in args.rule]

    paths = args.paths or [
        p for p in ("src", "tests") if pathlib.Path(p).is_dir()
    ]
    if not paths:
        parser.error(
            "no paths given and no src/ or tests/ under the current "
            "directory"
        )
    missing = [p for p in paths if not pathlib.Path(p).exists()]
    if missing:
        parser.error(f"no such path(s): {', '.join(str(p) for p in missing)}")

    result = run_analysis(paths, rules)

    for finding in result.findings:
        print(finding.render())

    status = EXIT_CLEAN
    if args.verify_schemas:
        from repro.analysis.schemas import verify_registry

        for error in verify_registry():
            print(f"schema-registry: {error}")
            status = EXIT_FINDINGS
        if status == EXIT_CLEAN:
            print("schema registry: writers and validators agree")

    print(
        f"{len(result.findings)} finding(s) across {result.n_files} file(s)",
        file=sys.stderr,
    )

    if args.json:
        out = atomic_write_text(
            pathlib.Path(args.json),
            json.dumps(
                report_payload(result, rules, paths),
                indent=2,
                sort_keys=True,
            )
            + "\n",
        )
        print(f"wrote {out}", file=sys.stderr)

    if result.findings:
        status = EXIT_FINDINGS
    return status
