"""Span tracing from outside the program, for the benchmark's traced pass.

:class:`SpanTracer` wraps the public entry points of each layer — class
attributes, plus the ``repro.core.node`` bindings of ``build_packet``
and ``refine_packet`` — for the duration of a ``with tracer.installed():``
block, then restores the originals.  Every wrapped call records one span
(name, start, end, parent) into flat in-memory arrays; :meth:`save`
writes them out when the pass ends.  A call that re-enters the layer it
is already in (``is_innovative`` → ``reduce``, ``peers_batch`` →
``peers``) is folded into the outer span, so ``calls`` counts entries
into a layer.  Very hot calls (``OpCounter.add``) are counted, not
timed.

A span's self time is its duration minus the durations of its direct
children; children nest strictly inside their parent, so that is the
time of the parent not covered by any child span.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array

import numpy as np

__all__ = ["SpanTracer"]


class SpanTracer:
    """In-memory span recorder with attribute-level instrumentation."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, list[int]] = {}
        #: One list per simulator run: its start, then one timestamp per
        #: ``record_round`` call.
        self.round_marks: list[list[float]] = []
        #: ``(max_rounds, result)`` of every simulator run, in order.
        self.runs: list[tuple[int, object]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------
    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, fn, name: str):
        """*fn* wrapped to record one ``name`` span per outermost call."""
        nid = self._name(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and name_id[stack[-1]] == nid:
                return fn(*args, **kwargs)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def counted(self, fn, key: str):
        """*fn* wrapped to count its calls under *key*, untimed."""
        cell = self.counts.setdefault(key, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _run(self, fn):
        """A simulator ``run``: a ``gossip.run`` span, round marks, result."""
        traced = self.span(fn, "gossip.run")
        marks, runs, clock = self.round_marks, self.runs, time.perf_counter

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            marks.append([clock()])
            result = traced(sim, *args, **kwargs)
            runs.append((sim.max_rounds, result))
            return result

        return wrapper

    def _record_round(self, fn):
        marks, clock = self.round_marks, time.perf_counter

        @functools.wraps(fn)
        def wrapper(result, *args, **kwargs):
            if marks:
                marks[-1].append(clock())
            return fn(result, *args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrap) -> None:
        """Replace ``owner.attr`` (defined on *owner* itself) by ``wrap(it)``."""
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def patch_layer(self, name: str, owners, attrs, required: bool = True) -> None:
        """Span every *attrs* method defined on each of *owners*."""
        for owner in owners:
            for attr in attrs:
                if required or attr in vars(owner):
                    self.patch(owner, attr, lambda fn: self.span(fn, name))

    # -- the instrumented surface -------------------------------------
    def _install(self) -> None:
        import repro.core.node as core_node
        from repro.content.cache import NodeCache
        from repro.content.metrics import CatalogueResult
        from repro.content.simulator import CatalogueSimulator
        from repro.core.node import LtncNode
        from repro.costmodel.counters import OpCounter
        from repro.gf2.batch import BatchRref
        from repro.gf2.matrix import IncrementalRref
        from repro.gossip.channel import ChannelModel, HeterogeneousChannel
        from repro.gossip.metrics import DisseminationResult
        from repro.gossip.peer_sampling import (
            PeerSampler,
            UniformSampler,
            ViewSampler,
        )
        from repro.gossip.simulator import EpidemicSimulator
        from repro.lt.decoder import BeliefPropagationDecoder
        from repro.rlnc.node import RlncNode
        from repro.scenarios.aggregate import ScenarioAggregate
        from repro.scenarios.fleet import CheckpointStore, FleetRunner
        from repro.scenarios.spec import ScenarioSpec
        from repro.schemes.descriptor import CodingScheme
        from repro.topology.channel import TopologyChannel
        from repro.topology.sampling import TopologySampler
        from repro.topology.spec import TopologySpec
        from repro.wc.node import WcNode

        for sim in (EpidemicSimulator, CatalogueSimulator):
            self.patch(sim, "run", self._run)
        for result in (DisseminationResult, CatalogueResult):
            self.patch(result, "record_round", self._record_round)
        self.patch_layer(
            "peer_sampling",
            (PeerSampler, UniformSampler, ViewSampler, TopologySampler),
            ("peers", "peers_batch"),
            required=False,
        )
        self.patch_layer(
            "channel",
            (ChannelModel, HeterogeneousChannel, TopologyChannel),
            ("loses", "duplicates", "churns", "delivers_batch"),
            required=False,
        )
        for scheme, node in (
            ("core", LtncNode), ("rlnc", RlncNode), ("wc", WcNode)
        ):
            self.patch_layer(f"{scheme}.make_packet", (node,), ("make_packet",))
            self.patch_layer(
                f"{scheme}.header_check", (node,), ("header_is_innovative",)
            )
            self.patch_layer(f"{scheme}.receive", (node,), ("receive",))
        self.patch_layer("core.build_packet", (core_node,), ("build_packet",))
        self.patch_layer("core.refine_packet", (core_node,), ("refine_packet",))
        self.patch_layer("lt.bp_receive", (BeliefPropagationDecoder,), ("receive",))
        rref_methods = ("insert", "reduce", "is_innovative")
        self.patch_layer("gf2.int", (IncrementalRref,), rref_methods)
        self.patch_layer("gf2.numpy", (BatchRref,), rref_methods)
        self.patch_layer(
            "schemes.make_node", (CodingScheme,), ("make_node", "make_source")
        )
        self.patch_layer("scenarios.build", (ScenarioSpec,), ("build",))
        self.patch_layer("topology.build", (TopologySpec,), ("build",))
        self.patch_layer(
            "content.cache",
            (NodeCache,),
            ("holds", "would_admit", "admit", "touch_served", "drop", "clear"),
        )
        self.patch_layer("fleet.run_grid", (FleetRunner,), ("run_grid",))
        self.patch_layer("fleet.checkpoint", (CheckpointStore,), ("save",))
        self.patch_layer(
            "fleet.aggregate", (ScenarioAggregate,), ("add_record", "to_dict")
        )
        self.patch(OpCounter, "add", lambda fn: self.counted(fn, "costmodel.add"))

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Instrument every layer for the duration of the block."""
        try:
            self._install()
            yield self
        finally:
            self._uninstall()

    # -- analysis ------------------------------------------------------
    def _arrays(self):
        name_id = np.array(self.name_id, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        dur = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=dur[nested], minlength=len(dur)
        )
        return name_id, dur, dur - covered

    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        name_id, dur, self_s = self._arrays()
        calls = np.bincount(name_id, minlength=len(self.names))
        total = np.bincount(name_id, weights=dur, minlength=len(self.names))
        own = np.bincount(name_id, weights=self_s, minlength=len(self.names))
        return {
            name: {
                "calls": int(calls[i]),
                "s": float(total[i]),
                "self_s": float(own[i]),
            }
            for i, name in enumerate(self.names)
        }

    def root_seconds(self) -> float:
        """Seconds covered by top-level spans (their self times sum to it)."""
        _, dur, _ = self._arrays()
        return float(dur[np.array(self.parent) < 0].sum())

    def durations(self, name: str) -> np.ndarray:
        """Seconds of every recorded ``name`` span."""
        if name not in self._ids:
            return np.zeros(0)
        name_id, dur, _ = self._arrays()
        return dur[name_id == self._ids[name]]

    def round_gaps(self) -> np.ndarray:
        """Seconds between consecutive rounds (run start to round 1 first)."""
        gaps = [np.diff(marks) for marks in self.round_marks if len(marks) > 1]
        return np.concatenate(gaps) if gaps else np.zeros(0)

    def count(self, key: str) -> int:
        return self.counts.get(key, [0])[0]

    def save(self, path) -> None:
        """Write every span (name, start, end, parent) to a ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start),
            end=np.array(self.end),
        )
