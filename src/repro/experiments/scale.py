"""Experiment scaling profiles.

The paper's testbed runs N = 1,000 nodes, k = 2,048 blocks of 256 KB
and 25 Monte-Carlo repetitions — about two million packet transfers per
run, infeasible for a pure-Python packet-level simulator inside a test
session (DESIGN.md §3).  The dissemination dynamics are scale-free in
*shape* (epidemic growth, coding gain, the LT overhead decreasing with
k), so benches default to a laptop profile and expose the paper profile
through the ``LTNC_SCALE`` environment variable:

``LTNC_SCALE=quick``   tiny smoke profile (CI-friendly, seconds)
``LTNC_SCALE=default`` the standard bench profile (minutes)
``LTNC_SCALE=paper``   the paper's parameters (hours; requires patience)

Every bench prints the profile it used next to the paper's reference
numbers so the two are never confused.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import env_str

__all__ = ["ScaleProfile", "current_profile", "PROFILES"]


@dataclass(frozen=True)
class ScaleProfile:
    """Workload sizes for the figure/table benches.

    Only what differs between profiles lives here: the push rate, the
    round horizon and the payload size are the defaults of
    :class:`~repro.scenarios.spec.ScenarioSpec` and
    :class:`~repro.costmodel.cycles.CycleModel` at every profile.
    """

    name: str
    n_nodes: int
    k_default: int
    k_sweep: tuple[int, ...]
    k_cost_sweep: tuple[int, ...]
    monte_carlo: int
    recode_samples: int = 200


PROFILES: dict[str, ScaleProfile] = {
    "quick": ScaleProfile(
        name="quick",
        n_nodes=12,
        k_default=32,
        k_sweep=(16, 32, 64),
        # Decoding-cost asymptotics (Gauss k^2 vs BP k log k) only
        # separate above k ~ 100; the cost microbenches are cheap, so
        # even the quick profile sweeps into that regime.
        k_cost_sweep=(64, 128, 512),
        monte_carlo=2,
        recode_samples=60,
    ),
    "default": ScaleProfile(
        name="default",
        n_nodes=32,
        k_default=128,
        k_sweep=(32, 64, 128, 256),
        k_cost_sweep=(64, 128, 256, 512, 1024),
        monte_carlo=3,
        recode_samples=200,
    ),
    "paper": ScaleProfile(
        name="paper",
        n_nodes=1000,
        k_default=2048,
        k_sweep=(512, 1024, 2048, 4096),
        k_cost_sweep=(400, 800, 1200, 1600, 2000),
        monte_carlo=25,
        recode_samples=500,
    ),
}


def current_profile() -> ScaleProfile:
    """The profile selected by ``LTNC_SCALE`` (default ``default``)."""
    name = (env_str("LTNC_SCALE", "default") or "default").lower()
    if name not in PROFILES:
        valid = ", ".join(sorted(PROFILES))
        raise KeyError(f"LTNC_SCALE={name!r}; expected one of: {valid}")
    return PROFILES[name]
