"""repro.analysis — the determinism-contract linter.

Makes the repo's hand-enforced reproducibility invariants
machine-checked: an :mod:`ast`-based rule engine
(:mod:`~repro.analysis.engine`), eight shipped rules LTNC001–LTNC008
(:mod:`~repro.analysis.rules`), the central schema-artifact registry
(:mod:`~repro.analysis.schemas`), and a CLI
(``python -m repro.analysis [--json] [--rule CODE] [paths]``; exit 1
on findings, 2 on bad invocation).  See README "Static analysis" for
the rule table and suppression syntax.
"""

from repro.analysis.engine import (
    AnalysisResult,
    Finding,
    lint_file,
    lint_source,
    run_analysis,
)
from repro.analysis.rules import RULES, RULES_BY_CODE, Rule
from repro.analysis.schemas import SCHEMAS, SchemaContract, verify_registry

__all__ = [
    "RULES",
    "RULES_BY_CODE",
    "SCHEMAS",
    "AnalysisResult",
    "Finding",
    "Rule",
    "SchemaContract",
    "lint_file",
    "lint_source",
    "run_analysis",
    "verify_registry",
]
