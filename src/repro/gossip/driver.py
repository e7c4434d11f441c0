"""One run driver over declared counters, for every round simulator.

Each result type declares its telemetry ``KIND``, its ``COUNTERS`` and
the linear ``LAWS`` over them, plus ``COMPLETION_LAWS`` that every
completed node (or interest pair) obeys.  :func:`drive` runs the round
loop and derives the rest: the ``run`` span, the ``round`` and
``complete`` trace events, the closing ``counter`` records, the
telemetry fold and ``tracer.close()``.  It ends every run with the
result's :meth:`~CountedResult.check`, which costs O(completed nodes)
and raises :class:`~repro.errors.SimulationError` naming each broken
law.  Adding a counter is one ``Counter(...)`` line.  This module sits
beside the simulators, not in ``repro.obs``: its collect step folds
operation counters, which observability code must never touch.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fnmatch import fnmatchcase
from itertools import islice
from typing import Callable, ClassVar, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.obs.metrics import ROUND_BOUNDARIES, MetricsCollector
from repro.obs.spans import SpanRecorder
from repro.obs.tracer import node_rank

__all__ = ["Counter", "CountedResult", "drive", "result_types"]

_OPS = {"=": operator.eq, "<=": operator.le, ">=": operator.ge}
_NAME = re.compile(r"[a-z_]+")


@dataclass(frozen=True)
class Counter:
    """A declared counter: its result ``field``, its per-round delta key
    in the ``round`` event (``trace``), its ``telemetry`` name (the field
    by default; a ``*`` pattern names one counter per key of a dict
    field, which the simulator records) and whether it also closes the
    trace as a ``counter`` record (``closing``).
    """

    field: str
    trace: str | None = None
    telemetry: str = ""
    closing: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "telemetry", self.telemetry or self.field)


def _broken(laws, values: Mapping[str, object], keys=()) -> list[str]:
    """Each law (``a + b = c``, ``<=`` or ``>=``) that *values* break.

    A value may be an array with one entry per key of *keys*: the law
    then holds entrywise, and the message names the first breaking key.
    """
    broken = []
    for law in laws:
        left, op, right = re.split(r"\s*(<=|>=|=)\s*", law)
        sides = [
            sum(int(t) if t.isdigit() else values[t] for t in side.split(" + "))
            for side in (left, right)
        ]
        holds = np.atleast_1d(_OPS[op](*sides))
        if not holds.all():
            i = int(np.argmin(holds))
            shown = ", ".join(
                f"{n}={values[n][i] if np.ndim(values[n]) else values[n]}"
                for n in _NAME.findall(law)
            )
            at = f" at {list(keys)[i]!r}" if keys else ""
            broken.append(f"{law} ({shown}){at}")
    return broken


class CountedResult:
    """Base of the result dataclasses that declare counters and laws;
    each has ``n_nodes``, ``rounds`` and a ``completion_rounds`` dict."""

    KIND: ClassVar[str]
    COUNTERS: ClassVar[tuple[Counter, ...]]
    LAWS: ClassVar[tuple[str, ...]]
    COMPLETION_LAWS: ClassVar[tuple[str, ...]] = (
        "0 <= completion_round",
        "completion_round <= rounds",
    )

    @property
    def completed_count(self) -> int:
        return len(self.completion_rounds)

    @property
    def all_complete(self) -> bool:
        return self.completed_count == self.n_nodes

    def average_completion_round(self) -> float:
        """Mean completion round over completed nodes (Fig. 7b metric)."""
        if not self.completion_rounds:
            raise SimulationError("nothing completed; cannot average")
        return float(np.mean(list(self.completion_rounds.values())))

    def completion_columns(self) -> dict[str, object]:
        """``COMPLETION_LAWS`` terms: arrays in ``completion_rounds``
        order (one entry per completed node or pair), or scalars."""
        done = list(self.completion_rounds.values())
        return {"completion_round": np.array(done), "rounds": self.rounds}

    def broken_laws(self) -> list[str]:
        """Every declared law this result breaks (dicts read as sums)."""
        values = {}
        for name in {n for law in self.LAWS for n in _NAME.findall(law)}:
            value = getattr(self, name)
            values[name] = sum(value.values()) if isinstance(value, dict) else value
        return _broken(self.LAWS, values) + _broken(
            self.COMPLETION_LAWS, self.completion_columns(), self.completion_rounds
        )

    def check(self) -> None:
        """Raise :class:`SimulationError` naming every broken law."""
        broken = self.broken_laws()
        if broken:
            raise SimulationError(
                f"{type(self).__name__} breaks " + "; ".join(broken)
            )


def result_types() -> dict[str, type[CountedResult]]:
    """Every declared result type, by its telemetry ``kind`` label."""
    # Lazy: each result module imports this one.
    from repro.content.metrics import CatalogueResult
    from repro.gossip.metrics import DisseminationResult
    from repro.gossip.wireless import WirelessResult

    return {c.KIND: c for c in (DisseminationResult, CatalogueResult, WirelessResult)}


def section_law_errors(section: Mapping[str, object]) -> list[str]:
    """The ``LAWS`` of its ``labels.kind`` that a telemetry section's
    summed counters break (sums over trials keep every linear law)."""
    labels = section.get("labels")
    kind = labels.get("kind") if isinstance(labels, dict) else None
    declared = result_types().get(kind) if isinstance(kind, str) else None
    if declared is None:
        return []
    counters = section["counters"]
    values = {
        c.field: sum(v for n, v in counters.items() if fnmatchcase(n, c.telemetry))
        for c in declared.COUNTERS
    }
    return _broken(declared.LAWS, values)


def _round_events(sim, progress, complete, ranked) -> Callable[[int], None]:
    """The per-round trace: a ``round`` event, then new ``complete`` events."""
    result, tracer = sim.result, sim.tracer
    progress = progress or (lambda: {"completed": result.completed_count})
    complete = complete or (lambda node: {"node": node})
    traced = [c for c in result.COUNTERS if c.trace]
    prev = [0] * len(traced)
    done = result.completion_rounds  # only grows, in insertion order
    emitted = [0]

    def emit(round_index: int) -> None:
        now = [getattr(result, c.field) for c in traced]
        ranks = {}
        if ranked is not None:
            known = [r for r in map(node_rank, ranked) if r is not None]
            for key, fold in (("total", sum), ("min", min), ("max", max)):
                ranks[f"rank_{key}"] = fold(known) if known else None
        tracer.event(
            "round",
            round=round_index,
            **progress(),
            **{c.trace: v - p for c, v, p in zip(traced, now, prev)},
            **ranks,
        )
        prev[:] = now
        for key in islice(done, emitted[0], None):
            tracer.event("complete", round=done[key], **complete(key))
        emitted[0] = len(done)

    return emit


def drive(
    sim,
    step: Callable[[int], None],
    *,
    span: Mapping[str, object],
    telemetry: Callable[[MetricsCollector], None],
    progress: Callable[[], Mapping[str, object]] | None = None,
    complete: Callable[[object], Mapping[str, object]] | None = None,
    ranked: Sequence[object] | None = None,
    collect: Callable[[], None] | None = None,
    profiler=None,
):
    """Run *sim*'s rounds (*step* runs one) until done or the horizon.

    *sim* has ``result``, ``tracer``, ``metrics`` and ``max_rounds``.
    Its own parts come as callables: *telemetry* records its own
    labels, counters, gauges and histograms, *progress* gives the
    ``round`` event's completion fields (default ``completed``),
    *complete* a ``complete`` event's key fields (default ``node``),
    and *collect* (the ``collect`` span) folds node state into the
    result.  *ranked* nodes close each ``round`` event with rank stats;
    a *profiler*'s phases close the trace.
    """
    result, tracer = sim.result, sim.tracer
    spans = SpanRecorder(tracer)
    emit = None
    if tracer.enabled:
        emit = _round_events(sim, progress, complete, ranked)
    try:
        spans.begin("run", **span)
        for round_index in range(sim.max_rounds):
            step(round_index)
            if emit is not None:
                emit(round_index)
            if result.all_complete:
                break
        if collect is not None:
            with spans.wrap("collect"):
                collect()
        spans.end(rounds=result.rounds)
        m = sim.metrics
        if m is not None:
            m.label("kind", result.KIND)
            for c in result.COUNTERS:
                if "*" not in c.telemetry:
                    m.count(c.telemetry, getattr(result, c.field))
            done = result.completion_rounds
            for key in sorted(done):
                m.observe("completion_round", done[key], ROUND_BOUNDARIES)
            telemetry(m)
        if tracer.enabled:
            for c in result.COUNTERS:
                if c.closing:
                    tracer.counter(c.field, getattr(result, c.field))
            if profiler is not None:
                tracer.event("phases", phases=profiler.snapshot())
    finally:
        tracer.close()
    result.check()
    return result
