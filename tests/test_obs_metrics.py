"""Unit tests for the mergeable telemetry primitives (repro.obs).

Covers :mod:`repro.obs.metrics` (fixed-boundary histograms, the
collector, exact merges) and :mod:`repro.obs.spans` (nestable named
timers over a tracer) in isolation; the end-to-end runner/fleet
telemetry contracts live in ``tests/test_telemetry.py``.
"""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.obs import (
    DEFAULT_BOUNDARIES,
    Histogram,
    JsonlTracer,
    MetricsCollector,
    SpanRecorder,
    read_trace,
)


# -- Histogram -----------------------------------------------------------
def test_histogram_buckets_values_by_boundary():
    h = Histogram((10, 20, 50))
    for value in (5, 10, 15, 20, 100):
        h.observe(value)
    # bucket i holds values <= boundaries[i]; the last is the overflow.
    assert h.counts == [2, 2, 0, 1]
    assert h.count == 5 and h.sum == 150
    assert h.min == 5 and h.max == 100


def test_histogram_rejects_bad_boundaries_and_counts():
    with pytest.raises(SimulationError, match="strictly increasing"):
        Histogram((10, 10, 20))
    with pytest.raises(SimulationError, match="at least one boundary"):
        Histogram(())
    h = Histogram((1, 2))
    with pytest.raises(SimulationError, match="must be >= 1"):
        h.observe(3, n=0)


def test_histogram_merge_is_exact_and_boundary_checked():
    a, b = Histogram((10, 20)), Histogram((10, 20))
    a.observe(5)
    b.observe(15)
    b.observe(100, n=3)
    a.merge(b)
    assert a.counts == [1, 1, 3]
    assert a.count == 5 and a.sum == 320
    assert a.min == 5 and a.max == 100
    with pytest.raises(SimulationError, match="boundaries"):
        a.merge(Histogram((10, 30)))


def test_histogram_dict_roundtrip():
    h = Histogram((10, 20))
    h.observe(7, n=2)
    clone = Histogram.from_dict(h.to_dict())
    assert clone.to_dict() == h.to_dict()
    bad = h.to_dict()
    bad["counts"] = [1]  # wrong arity for the boundaries
    with pytest.raises(SimulationError, match="counts"):
        Histogram.from_dict(bad)


def test_histogram_takes_integers_only():
    # A float sum depends on how shards group the trials, so merged
    # telemetry would differ across worker counts: integers only.
    h = Histogram((10, 20))
    h.observe(np.int64(7))
    assert h.sum == 7 and type(h.sum) is int
    for bad in (0.5, 7.0, True):
        with pytest.raises(SimulationError, match="integers"):
            h.observe(bad)
    assert h.count == 1
    with pytest.raises(SimulationError, match="histogram 'rsd'.*integers"):
        MetricsCollector().observe("rsd", 0.25)
    payload = h.to_dict()
    payload["sum"] = 7.0
    with pytest.raises(SimulationError, match="sum"):
        Histogram.from_dict(payload)


# -- MetricsCollector ----------------------------------------------------
def test_collector_counts_gauges_and_histograms():
    m = MetricsCollector()
    assert not m
    m.label("kind", "epidemic")
    m.count("rounds", 3)
    m.count("rounds", 2)
    m.gauge("completed_fraction", 0.5)
    m.gauge("completed_fraction", 1.0)
    m.observe("completion_round", 12)
    assert m
    snap = m.snapshot()
    assert snap["labels"] == {"kind": "epidemic"}
    assert snap["counters"] == {"rounds": 5}
    gauge = snap["gauges"]["completed_fraction"]
    assert gauge["last"] == 1.0 and gauge["min"] == 0.5
    assert gauge["max"] == 1.0 and gauge["samples"] == 2
    hist = snap["histograms"]["completion_round"]
    assert hist["count"] == 1 and hist["sum"] == 12
    assert tuple(hist["boundaries"]) == DEFAULT_BOUNDARIES


def test_collector_rejects_bad_updates():
    m = MetricsCollector()
    with pytest.raises(SimulationError, match="must be >= 0"):
        m.count("x", -1)
    m.observe("h", 1, boundaries=(1, 2))
    with pytest.raises(SimulationError, match="boundaries changed"):
        m.observe("h", 1, boundaries=(1, 3))


def test_collector_merge_matches_single_stream():
    # Merging per-worker snapshots must equal one collector that saw
    # every observation — the property that makes fleet telemetry
    # worker- and shard-count invariant.
    whole = MetricsCollector()
    parts = [MetricsCollector() for _ in range(3)]
    for index, part in enumerate(parts):
        for value in range(index + 2):
            whole.count("events")
            part.count("events")
            whole.observe("size", value * 10 + 1)
            part.observe("size", value * 10 + 1)
        whole.gauge("fill", float(index))
        part.gauge("fill", float(index))
    merged = MetricsCollector()
    for part in parts:
        merged.merge_snapshot(part.snapshot())
    assert merged.snapshot() == whole.snapshot()


def test_collector_merge_snapshot_validates_shape():
    m = MetricsCollector()
    with pytest.raises(SimulationError, match="counter"):
        m.merge_snapshot({"counters": {"x": -2}})
    with pytest.raises(SimulationError, match="gauge"):
        m.merge_snapshot({"gauges": {"g": {"last": 1.0}}})


def test_collector_merge_does_not_alias_histograms():
    a, b = MetricsCollector(), MetricsCollector()
    b.observe("h", 1, boundaries=(1, 2))
    a.merge(b)
    b.observe("h", 1, boundaries=(1, 2))
    assert a.snapshot()["histograms"]["h"]["count"] == 1  # unchanged


# -- SpanRecorder --------------------------------------------------------
def test_span_recorder_emits_nested_spans(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlTracer(path) as tracer:
        spans = SpanRecorder(tracer)
        assert spans.enabled
        spans.begin("run", scheme="ltnc")
        with spans.wrap("collect"):
            assert spans.depth == 2
        spans.end(rounds=9)
    records = [r for r in read_trace(path) if r["kind"] == "span"]
    # collect closes first (inner), run second; depth is post-pop.
    assert [r["name"] for r in records] == ["collect", "run"]
    assert records[0]["depth"] == 1 and records[1]["depth"] == 0
    assert records[1]["scheme"] == "ltnc" and records[1]["rounds"] == 9
    assert all(r["dt"] >= 0 for r in records)


def test_span_recorder_wrap_is_exception_safe(tmp_path):
    path = tmp_path / "t.jsonl"
    with JsonlTracer(path) as tracer:
        spans = SpanRecorder(tracer)
        with pytest.raises(RuntimeError, match="boom"):
            with spans.wrap("run"):
                raise RuntimeError("boom")
        assert spans.depth == 0  # stack unwound; recorder reusable
        with spans.wrap("again"):
            pass
    names = [r["name"] for r in read_trace(path) if r["kind"] == "span"]
    assert names == ["run", "again"]


def test_span_recorder_disabled_is_inert_and_shared():
    spans = SpanRecorder(None)
    assert not spans.enabled
    context = spans.wrap("x")
    assert context is spans.wrap("y")  # shared null context, no allocs
    with context:
        pass
    spans.end()  # no-op when disabled, never raises


def test_span_recorder_unbalanced_end_raises(tmp_path):
    with JsonlTracer(tmp_path / "t.jsonl") as tracer:
        spans = SpanRecorder(tracer)
        with pytest.raises(SimulationError, match="without a matching begin"):
            spans.end()
