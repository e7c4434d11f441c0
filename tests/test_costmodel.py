"""Tests for operation counters and the cycle model."""

import pytest

from repro.costmodel import (
    CONTROL_OPS,
    DATA_OPS,
    CostBreakdown,
    CycleModel,
    OpCounter,
)


class TestOpCounter:
    def test_add_and_get(self):
        c = OpCounter()
        c.add("bp_edge")
        c.add("bp_edge", 3)
        assert c.get("bp_edge") == 4
        assert c.get("unknown") == 0

    def test_add_zero_is_noop(self):
        c = OpCounter()
        c.add("x", 0)
        assert not c
        assert "x" not in c.counts

    def test_merge(self):
        a = OpCounter({"x": 1})
        b = OpCounter({"x": 2, "y": 5})
        a.merge(b)
        assert a.get("x") == 3 and a.get("y") == 5

    def test_snapshot_diff(self):
        c = OpCounter()
        c.add("x", 2)
        snap = c.snapshot()
        c.add("x", 3)
        c.add("y", 1)
        assert c.diff(snap) == {"x": 3, "y": 1}

    def test_reset(self):
        c = OpCounter({"x": 1})
        c.reset()
        assert not c and c.total() == 0

    def test_totals(self):
        c = OpCounter({"bp_edge": 2, "payload_xor": 3, "custom": 7})
        assert c.total(CONTROL_OPS) == 2
        assert c.total(DATA_OPS) == 3
        assert c.total() == 12
        assert c.total(["custom"]) == 7

    def test_constructor_copies(self):
        src = {"x": 1}
        c = OpCounter(src)
        src["x"] = 99
        assert c.get("x") == 1


class TestCycleModel:
    def test_control_cycles_weighting(self):
        model = CycleModel(m=100)
        c = OpCounter({"vec_word_xor": 10, "table_op": 2})
        expect = 10 * model.word_xor_cycles + 2 * model.table_op_cycles
        assert model.control_cycles(c) == pytest.approx(expect)

    def test_data_cycles_scale_with_m(self):
        c = OpCounter({"payload_xor": 4})
        small = CycleModel(m=100).data_cycles(c)
        large = CycleModel(m=200).data_cycles(c)
        assert large == pytest.approx(2 * small)

    def test_memory_factor(self):
        c = OpCounter({"payload_xor": 1})
        base = CycleModel(m=8, memory_factor=1.0).data_cycles(c)
        slow = CycleModel(m=8, memory_factor=4.0).data_cycles(c)
        assert slow == pytest.approx(4 * base)

    def test_extra_weights(self):
        model = CycleModel(m=1, extra_weights={"my_op": 5.0})
        c = OpCounter({"my_op": 3})
        assert model.control_cycles(c) == pytest.approx(15.0)

    def test_breakdown_total(self):
        model = CycleModel(m=8)
        c = OpCounter({"bp_edge": 1, "payload_xor": 1})
        b = model.breakdown(c)
        assert b.total_cycles == pytest.approx(
            b.control_cycles + b.data_cycles
        )
        assert b.control_cycles > 0 and b.data_cycles > 0

    def test_per_normalisation(self):
        b = CostBreakdown(100.0, 50.0)
        half = b.per(2)
        assert half.control_cycles == pytest.approx(50.0)
        assert half.data_cycles == pytest.approx(25.0)
        assert b.per(0) is b  # degenerate: unchanged

    def test_data_cycles_per_byte(self):
        model = CycleModel(m=1024)
        c = OpCounter({"payload_xor": 8})
        per_byte = model.data_cycles_per_byte(c, content_bytes=1024)
        assert per_byte == pytest.approx(8 * model.payload_byte_cycles)
        assert model.data_cycles_per_byte(c, 0) == 0.0

    def test_all_control_ops_have_weights(self):
        # Every canonical control op must contribute to the model;
        # otherwise a hot loop would silently cost nothing.
        model = CycleModel(m=1)
        for op in CONTROL_OPS:
            c = OpCounter({op: 1})
            assert model.control_cycles(c) > 0, op
