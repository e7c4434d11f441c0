"""Fleet-wide telemetry persistence: shard sections → ``telemetry.json``.

The :mod:`repro.obs.metrics` collectors live inside worker processes;
this module owns how their snapshots reach disk.  A *section* is one
scenario's merged telemetry: an ``n_trials`` count plus a
:meth:`~repro.obs.metrics.MetricsCollector.snapshot`.  Sections live in
two places:

* a fleet shard's checkpoint carries its shard's section (the optional
  ``telemetry`` key of ``ltnc-fleet-checkpoint`` v2, see
  :mod:`repro.scenarios.fleet`), checked by :func:`section_errors` with
  the checkpoint's own paranoia;
* the **fleet file** (``telemetry.json``, ``ltnc-telemetry`` v1) is the
  atomic shard-by-shard merge over every scenario, written once per
  completed run.

``telemetry.json`` deliberately contains **no wall-clock content** — no
timestamps, durations, host names or rates.  Everything in it is a
deterministic function of (scenario, trials, master seed), which is
what lets the invariance tests pin it byte-identical across worker
counts × shard counts × interrupt/resume cycles.  Wall-clock telemetry
belongs to the trace/progress artifacts, which are explicitly
host-local.

Fleet file shape::

    {"format": "ltnc-telemetry", "version": 1,
     "scenarios": {"baseline": {"n_trials": 25, "labels": {...},
                   "counters": {...}, "gauges": {...},
                   "histograms": {...}}}}
"""

from __future__ import annotations

import json
import pathlib

from repro.errors import SimulationError
from repro.fileio import atomic_write_text
from repro.obs.metrics import Histogram

__all__ = [
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
    "read_telemetry",
    "section_errors",
    "telemetry_payload",
    "validate_telemetry",
    "write_telemetry",
]

TELEMETRY_FORMAT = "ltnc-telemetry"
TELEMETRY_VERSION = 1


def telemetry_payload(
    sections: dict[str, dict[str, object]],
) -> dict[str, object]:
    """The fleet-wide ``ltnc-telemetry`` v1 payload for *sections*.

    *sections* maps scenario name to its merged telemetry section (an
    ``n_trials`` count plus a
    :meth:`~repro.obs.metrics.MetricsCollector.snapshot`).  Scenario
    order is canonicalised by name so the payload serialises
    identically however the grid was sharded.
    """
    return {
        "format": TELEMETRY_FORMAT,
        "version": TELEMETRY_VERSION,
        "scenarios": {name: sections[name] for name in sorted(sections)},
    }


def section_errors(section: object, label: str) -> list[str]:
    """Every violation of one merged telemetry *section*, named by *label*.

    The summed counters must also obey the laws declared for the
    section's ``labels.kind`` (see :mod:`repro.gossip.driver`).
    """
    if not isinstance(section, dict):
        return [f"{label} is not an object"]
    errors: list[str] = []
    n_trials = section.get("n_trials")
    if not isinstance(n_trials, int) or isinstance(n_trials, bool) or n_trials < 1:
        errors.append(f"{label}.n_trials not a positive int")
    counters = section.get("counters")
    if not isinstance(counters, dict):
        errors.append(f"{label}.counters missing")
    elif any(not isinstance(v, int) or v < 0 for v in counters.values()):
        errors.append(f"{label} has a negative/non-int counter")
    else:
        # Lazy: the simulators, which declare the laws, import obs.
        from repro.gossip.driver import section_law_errors

        errors.extend(f"{label} breaks {law}" for law in section_law_errors(section))
    for hist_name, hist in (section.get("histograms") or {}).items():
        try:
            Histogram.from_dict(hist)
        except (SimulationError, KeyError, TypeError) as exc:
            errors.append(f"{label}.histograms[{hist_name}]: {exc}")
    return errors


def validate_telemetry(
    payload: object, source: str = "telemetry"
) -> dict[str, object]:
    """Check a fleet ``telemetry.json`` payload; return it on success.

    Raises ``ValueError`` listing every violation, prefixed with
    *source* — the shape the CI smoke step and ``tracestats
    --telemetry`` rely on.
    """
    errors: list[str] = []
    if not isinstance(payload, dict):
        raise ValueError(f"{source}: telemetry payload is not a JSON object")
    if payload.get("format") != TELEMETRY_FORMAT:
        errors.append(
            f"format {payload.get('format')!r} != {TELEMETRY_FORMAT!r}"
        )
    if payload.get("version") != TELEMETRY_VERSION:
        errors.append(
            f"version {payload.get('version')!r} != {TELEMETRY_VERSION}"
        )
    scenarios = payload.get("scenarios")
    if not isinstance(scenarios, dict) or not scenarios:
        errors.append("scenarios section missing or empty")
        scenarios = {}
    for name, section in scenarios.items():
        errors.extend(section_errors(section, f"scenarios[{name}]"))
    if errors:
        raise ValueError(f"{source}: invalid telemetry: " + "; ".join(errors))
    return payload


def write_telemetry(
    path: str | pathlib.Path, sections: dict[str, dict[str, object]]
) -> pathlib.Path:
    """Atomically write the fleet-wide telemetry file; return its path."""
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    payload = telemetry_payload(sections)
    return atomic_write_text(
        out, json.dumps(payload, sort_keys=True, indent=2) + "\n"
    )


def read_telemetry(path: str | pathlib.Path) -> dict[str, object]:
    """Load and validate a fleet ``telemetry.json``."""
    path = pathlib.Path(path)
    payload = json.loads(path.read_text())
    return validate_telemetry(payload, source=str(path))
