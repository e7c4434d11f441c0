"""Nestable named spans emitted into the ``ltnc-trace`` JSONL stream.

A worker-process trial has structure: *build* the simulator, *run* the
round loop, *collect* the counters — phases that open and close at
different call depths.  :class:`SpanRecorder` is the one way spans are
timed: explicit ``begin`` / ``end`` pairs (or the ``wrap`` context
manager) on the monotonic clock, with the nesting depth tracked, and
one ``span`` record per completed pair emitted through the trial's own
:meth:`~repro.obs.tracer.JsonlTracer.emit_span` — so the spans land in
the same per-trial trace file the round events already stream to, and
``tracestats --spans`` can report them without a new artifact kind.

Span records extend the ``ltnc-trace`` v1 ``span`` shape with a
``depth`` field (0 = outermost)::

    {"kind": "span", "name": "run", "t": 0.0001, "dt": 1.25, "depth": 0,
     "rounds": 17}

Disabled cost is one attribute check per call: with the shared
:data:`~repro.obs.tracer.NULL_TRACER` the recorder never reads the
clock, so instrumented simulators stay rng- and OpCounter-identical
(pinned by ``tests/test_obs_invariance.py``).
"""

from __future__ import annotations

import contextlib
import time

from repro.errors import SimulationError
from repro.obs.tracer import NULL_TRACER

__all__ = ["SpanRecorder"]


#: What :meth:`SpanRecorder.wrap` returns when disabled: reads no clock.
_NULL_CONTEXT = contextlib.nullcontext()


class SpanRecorder:
    """Named begin/end spans on the monotonic clock, nestable.

    One recorder belongs to one trial (like the tracer it feeds); it is
    not shared across processes — worker trials each build their own
    inside :func:`repro.scenarios.runner.run_trial`'s ``spec.build``
    path.  Spans must be properly nested (``end`` closes the most recent
    ``begin``); an unbalanced ``end`` raises instead of mis-attributing
    time.
    """

    __slots__ = ("tracer", "enabled", "_stack")

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.enabled = bool(self.tracer.enabled)
        self._stack: list[tuple[str, float, dict]] = []

    def begin(self, name: str, **attrs: object) -> None:
        """Open span *name*; nests under any span already open."""
        if not self.enabled:
            return
        self._stack.append((name, time.monotonic(), attrs))

    def end(self, **extra: object) -> None:
        """Close the innermost open span and emit its record.

        *extra* fields are added to the record at close time (e.g. the
        round count known only after the loop finished).
        """
        if not self.enabled:
            return
        if not self._stack:
            raise SimulationError("span end() without a matching begin()")
        name, t0, attrs = self._stack.pop()
        self.tracer.emit_span(
            name,
            t0,
            time.monotonic() - t0,
            depth=len(self._stack),
            **{**attrs, **extra},
        )

    def wrap(self, name: str, **attrs: object):
        """Context manager form: ``with spans.wrap("build"): ...``.

        Exception-safe (the span closes on the error path too) and free
        when disabled — the shared null context reads no clock.
        """
        if not self.enabled:
            return _NULL_CONTEXT
        return self._wrapped(name, attrs)

    @contextlib.contextmanager
    def _wrapped(self, name: str, attrs: dict):
        self.begin(name, **attrs)
        try:
            yield
        finally:
            self.end()

    @property
    def depth(self) -> int:
        """How many spans are currently open."""
        return len(self._stack)
