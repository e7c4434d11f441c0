"""Per-phase wall-time profiling and the simulators' observation seam.

The perf trajectory in ``BENCH_ltnc.json`` carries a ``phases`` section
built from this module, so an optimisation can show *which* phase it
moved, not just the aggregate rate.

A :class:`PhaseProfiler` accumulates ``(seconds, calls)`` per named
phase.  It times nothing itself: the :class:`PhaseClock` seam below is
the one place phases are measured, exclusively on the monotonic clock
(``time.perf_counter``) — never wall-clock dates, so suspends and NTP
steps cannot produce negative phase times.  The canonical phases are:

``sampling``  peer/target draws and the per-round push permutation
``channel``   loss / duplication / churn draws
``encode``    packet construction (``make_packet``; includes the LTNC
              refinement, which is additionally reported standalone)
``decode``    header innovation checks and ``receive`` processing
``refine``    Algorithm-2 refinement inside LTNC recoding (a *subset*
              of ``encode``, charged by the node itself)

The simulators reach the profiler and the session tracer through one
seam, a :class:`PhaseClock` chosen once at construction by
:func:`phase_clock`.  The epidemic round loop brackets each phase as
``t0 = clock.start()`` … ``clock.stop(phase, t0)``, and both the
epidemic and the catalogue simulator report each finished session
through ``clock.session(...)``.  A profiled simulator hands the same
clock to its LTNC nodes, which bracket their refinement step.  Without
profiling or session tracing the seam is :data:`NULL_CLOCK`, whose
brackets read no clock at all.  Observing never changes simulation *results*: timing
reads no rng and charges no OpCounter, which
``tests/test_obs_invariance.py`` pins.
"""

from __future__ import annotations

import time
from typing import Callable

__all__ = [
    "NULL_CLOCK",
    "PHASES",
    "PhaseClock",
    "PhaseProfiler",
    "phase_clock",
]

#: Canonical phase names, in report order.
PHASES = ("sampling", "channel", "encode", "decode", "refine")


class PhaseProfiler:
    """Accumulates wall seconds and call counts per named phase."""

    __slots__ = ("seconds", "calls")

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}

    def add(self, phase: str, seconds: float, calls: int = 1) -> None:
        """Charge *seconds* (and *calls* invocations) to *phase*."""
        self.seconds[phase] = self.seconds.get(phase, 0.0) + seconds
        self.calls[phase] = self.calls.get(phase, 0) + calls

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's totals into this one (per-trial agg)."""
        for phase, seconds in other.seconds.items():
            self.add(phase, seconds, other.calls.get(phase, 0))

    def total_seconds(self) -> float:
        return sum(self.seconds.values())

    def snapshot(self) -> dict[str, dict[str, float | int]]:
        """JSON-able per-phase table, canonical phases first.

        ``fraction`` is each phase's share of the *measured* time (the
        ``refine`` subset of ``encode`` included as reported, so
        fractions describe the table, not a partition of wall time).
        """
        total = self.total_seconds()
        ordered = [p for p in PHASES if p in self.seconds] + sorted(
            p for p in self.seconds if p not in PHASES
        )
        return {
            phase: {
                "seconds": round(self.seconds[phase], 6),
                "calls": self.calls.get(phase, 0),
                "fraction": round(
                    self.seconds[phase] / total if total else 0.0, 4
                ),
            }
            for phase in ordered
        }

    def __bool__(self) -> bool:
        return bool(self.seconds)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{p}={s:.4f}s" for p, s in sorted(self.seconds.items())
        )
        return f"PhaseProfiler({inner})"


class PhaseClock:
    """The observation seam of one simulator run; this base is the null one.

    Every method returns at once without reading a clock, so the
    brackets in a hot loop cost one no-op call each when nothing is
    observed.
    """

    __slots__ = ()

    def start(self) -> float:
        """Open a phase bracket; the token goes back to :meth:`stop`."""
        return 0.0

    def stop(self, phase: str, t0: float) -> None:
        """Close the bracket opened at *t0*, charging it to *phase*."""

    def session(self, fields: Callable[..., dict], *args: object) -> None:
        """Report one finished session as ``fields(*args)``.

        *fields* builds the event payload; it only runs when sessions
        are traced.
        """


#: The shared null seam.
NULL_CLOCK = PhaseClock()


class _ObservingClock(PhaseClock):
    """The seam of a profiled and/or session-traced run."""

    __slots__ = ("profiler", "tracer")

    def __init__(self, profiler: PhaseProfiler | None, tracer) -> None:
        self.profiler = profiler
        self.tracer = tracer

    def start(self) -> float:
        return time.perf_counter() if self.profiler is not None else 0.0

    def stop(self, phase: str, t0: float) -> None:
        if self.profiler is not None:
            self.profiler.add(phase, time.perf_counter() - t0)

    def session(self, fields: Callable[..., dict], *args: object) -> None:
        if self.tracer is not None:
            self.tracer.event("session", **fields(*args))


def phase_clock(profiler: PhaseProfiler | None = None, tracer=None) -> PhaseClock:
    """The seam for one run: :data:`NULL_CLOCK` unless something observes.

    *profiler* receives the phase brackets; *tracer* receives one
    ``session`` event per session when its detail level is
    ``"session"``.
    """
    if tracer is not None and not (tracer.enabled and tracer.detail == "session"):
        tracer = None
    if profiler is None and tracer is None:
        return NULL_CLOCK
    return _ObservingClock(profiler, tracer)
