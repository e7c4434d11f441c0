"""Central registry of every schema-versioned artifact the repo writes.

Before this module, each artifact family (traces, telemetry, fleet
progress, checkpoints, bench reports) declared its format/version
constants in its own writer module and hoped its validator agreed.
The registry makes that agreement checkable from both directions:

* **Statically** — rule LTNC006 parses each registered writer module
  and fails the lint run when a declared constant is missing, drifts
  from the registry, or a new ``*_FORMAT``/``*_VERSION`` constant
  appears that the registry does not know about.
* **At runtime** — :func:`verify_registry` imports every writer,
  compares the live constants against the registry, and resolves every
  validator to a callable; the tier-1 self-check test asserts it
  returns no errors.

Adding an artifact: give the writer module ``<NAME>_FORMAT`` /
``<NAME>_VERSION`` constants, a validator raising ``ValueError`` on a
bad payload, and register them here.  The linter enforces the rest.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Callable

__all__ = [
    "SCHEMAS",
    "SchemaContract",
    "contract_for",
    "contracts_for_path",
    "resolve_validator",
    "verify_registry",
]


@dataclasses.dataclass(frozen=True)
class SchemaContract:
    """One schema-versioned artifact family and where it lives."""

    artifact: str  # registry key, e.g. "ltnc-trace"
    version: int  # the version the writer must declare
    writer_module: str  # dotted module holding the constants
    version_const: str  # name of the version constant
    validator: str  # "dotted.module:attr" raising ValueError on bad input
    format: str | None = None  # format string, when the payload carries one
    format_const: str | None = None  # name of the format constant

    @property
    def writer_path(self) -> str:
        """Repo-relative source path of the writer module."""
        return "src/" + self.writer_module.replace(".", "/") + ".py"


SCHEMAS: tuple[SchemaContract, ...] = (
    SchemaContract(
        artifact="ltnc-trace",
        format="ltnc-trace",
        version=1,
        writer_module="repro.obs.tracer",
        format_const="TRACE_FORMAT",
        version_const="TRACE_VERSION",
        validator="repro.experiments.tracestats:validate_trace",
    ),
    SchemaContract(
        artifact="ltnc-telemetry",
        format="ltnc-telemetry",
        version=1,
        writer_module="repro.obs.telemetry",
        format_const="TELEMETRY_FORMAT",
        version_const="TELEMETRY_VERSION",
        validator="repro.obs.telemetry:validate_telemetry",
    ),
    SchemaContract(
        artifact="ltnc-fleet-progress",
        format="ltnc-fleet-progress",
        version=1,
        writer_module="repro.obs.progress",
        format_const="PROGRESS_FORMAT",
        version_const="PROGRESS_VERSION",
        validator="repro.obs.progress:validate_progress",
    ),
    SchemaContract(
        artifact="ltnc-fleet-checkpoint",
        format="ltnc-fleet-checkpoint",
        version=2,
        writer_module="repro.scenarios.fleet",
        format_const="CHECKPOINT_FORMAT",
        version_const="CHECKPOINT_VERSION",
        validator="repro.scenarios.fleet:validate_checkpoint",
    ),
    # The round plan is an rng-stream layout, not a JSON payload: the
    # version constant pins the draw order the simulator's round loop
    # must reproduce, and the validator checks a carried version int
    # rather than a document.
    SchemaContract(
        artifact="ltnc-round-plan",
        format=None,
        version=1,
        writer_module="repro.gossip.simulator",
        format_const=None,
        version_const="ROUND_PLAN_VERSION",
        validator="repro.gossip.simulator:validate_round_plan",
    ),
    # BENCH_ltnc.json carries a bare ``schema_version`` integer (no
    # format string — predates the ltnc-* convention; changing the
    # payload would invalidate the checked-in trajectory).
    SchemaContract(
        artifact="ltnc-bench",
        format=None,
        version=6,
        writer_module="repro.experiments.perfbench",
        format_const=None,
        version_const="SCHEMA_VERSION",
        validator="repro.experiments.perfbench:validate_bench",
    ),
    SchemaContract(
        artifact="ltnc-baseline",
        format="ltnc-baseline",
        version=1,
        writer_module="repro.analysis.engine",
        format_const="BASELINE_FORMAT",
        version_const="BASELINE_VERSION",
        validator="repro.analysis.engine:validate_baseline",
    ),
    SchemaContract(
        artifact="ltnc-analysis-report",
        format="ltnc-analysis-report",
        version=1,
        writer_module="repro.analysis.engine",
        format_const="REPORT_FORMAT",
        version_const="REPORT_VERSION",
        validator="repro.analysis.engine:validate_report",
    ),
)


def contract_for(artifact: str) -> SchemaContract:
    """The registered contract of *artifact*; ``KeyError`` lists the known."""
    for contract in SCHEMAS:
        if contract.artifact == artifact:
            return contract
    known = ", ".join(sorted(c.artifact for c in SCHEMAS))
    raise KeyError(f"unknown artifact {artifact!r}; registered: {known}")


def contracts_for_path(logical: str) -> list[SchemaContract]:
    """Every contract whose writer module is the file at *logical*."""
    return [c for c in SCHEMAS if c.writer_path == logical]


def resolve_validator(contract: SchemaContract) -> Callable[..., object]:
    """Import and return the contract's validator callable."""
    module_name, _, attr_path = contract.validator.partition(":")
    obj: object = importlib.import_module(module_name)
    for attr in attr_path.split("."):
        obj = getattr(obj, attr)
    if not callable(obj):
        raise TypeError(f"{contract.validator} is not callable")
    return obj


def verify_registry() -> list[str]:
    """Cross-check every contract against its live writer and validator.

    Imports each writer module (so this needs the full package
    importable — it is the runtime half of LTNC006, exercised by the
    tier-1 self-check test and ``--verify-schemas``).  Returns a list
    of human-readable errors; empty means the registry, the writers and
    the validators all agree.
    """
    errors: list[str] = []
    for contract in SCHEMAS:
        try:
            module = importlib.import_module(contract.writer_module)
        except Exception as exc:  # pragma: no cover - import breakage
            errors.append(f"{contract.artifact}: cannot import writer ({exc})")
            continue
        missing = object()
        version = getattr(module, contract.version_const, missing)
        if version is missing:
            errors.append(
                f"{contract.artifact}: {contract.writer_module} has no "
                f"{contract.version_const}"
            )
        elif version != contract.version:
            errors.append(
                f"{contract.artifact}: {contract.version_const} is "
                f"{version!r}, registry says {contract.version}"
            )
        if contract.format_const is not None:
            fmt = getattr(module, contract.format_const, missing)
            if fmt is missing:
                errors.append(
                    f"{contract.artifact}: {contract.writer_module} has no "
                    f"{contract.format_const}"
                )
            elif fmt != contract.format:
                errors.append(
                    f"{contract.artifact}: {contract.format_const} is "
                    f"{fmt!r}, registry says {contract.format!r}"
                )
        try:
            resolve_validator(contract)
        except Exception as exc:
            errors.append(
                f"{contract.artifact}: validator {contract.validator} "
                f"does not resolve ({exc})"
            )
    return errors
