"""Shared fixtures for the figure/table benches.

Every bench regenerates one artefact of the paper's evaluation, prints
the series it measured next to the paper's reference numbers, and
persists the report under ``benchmarks/out/`` so EXPERIMENTS.md can be
assembled from the raw outputs.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.scale import ScaleProfile, current_profile

OUT_DIR = pathlib.Path(__file__).parent / "out"
#: Worker processes for the benches' fleet runs; results do not depend
#: on it, so reports never name it.
WORKERS = min(4, os.cpu_count() or 1)


class Reporter:
    """Accumulates a plain-text report for one experiment."""

    def __init__(self, name: str, profile: ScaleProfile) -> None:
        self.name = name
        self.profile = profile
        self.lines: list[str] = [
            f"experiment: {name}",
            f"profile: {profile.name} (N={profile.n_nodes}, "
            f"monte_carlo={profile.monte_carlo})",
            "",
        ]

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, header: list[str], rows: list[list[object]]) -> None:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(header)
        ]
        fmt = "  ".join(f"{{:>{w}}}" for w in widths)
        self.lines.append(fmt.format(*header))
        self.lines.append("  ".join("-" * w for w in widths))
        for row in rows:
            self.lines.append(fmt.format(*[str(c) for c in row]))

    def finish(self) -> str:
        text = "\n".join(self.lines) + "\n"
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{self.name}.txt").write_text(text)
        print()
        print(text)
        return text


@pytest.fixture(scope="session")
def profile() -> ScaleProfile:
    return current_profile()


@pytest.fixture
def reporter(profile: ScaleProfile, request: pytest.FixtureRequest):
    def make(name: str) -> Reporter:
        return Reporter(name, profile)

    return make


def run_once_benchmark(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are minutes-long simulations; statistical repetition
    comes from their internal Monte-Carlo loops, not from re-running the
    whole harness.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)
