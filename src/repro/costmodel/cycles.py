"""Cycle model: converts operation counts into CPU-cycle estimates.

The paper's Figure 8 reports CPU cycles on an Intel Xeon 2.33 GHz for
the control plane (code vectors, Tanner graph / code matrix upkeep) and
the data plane (payload XORs) of recoding and decoding.  We substitute
deterministic operation counting for wall-clock timing (DESIGN.md §3)
and convert counts to cycles here.

Calibration
-----------

The weights approximate a 64-bit scalar core and live in one table,
:data:`CYCLES_PER_OP`:

* one 64-bit word XOR (load-xor-store on cached data): ~3 cycles;
* one byte of payload XOR: 3/8 cycle (same word op, 8 bytes at a time);
* a hash/index/queue operation: ~24 cycles (hashing + probe);
* a `cc` array lookup: ~4 cycles (array load + compare);
* a random draw: ~32 cycles (PRNG step + scaling).

The absolute values matter less than their ratios: Figure 8's message
is that Gauss reduction costs ``O(k^2)`` row operations of ``k/64``
words each while belief propagation costs ``O(k log k)`` edge
operations, and that sparse RLNC recoding XORs ``ln k + 20`` payloads
while LTNC XORs only a handful.  Those shapes are invariant to the
constants; the benches print both.  The payload size *m* is the
model's one setting.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.counters import CONTROL_OPS, OpCounter

__all__ = ["CYCLES_PER_OP", "CycleModel", "CostBreakdown"]

#: Cycles per canonical op; ``payload_xor`` is charged per payload byte.
CYCLES_PER_OP: dict[str, float] = {
    "vec_word_xor": 3.0,
    "gauss_row_xor": 8.0,
    "bp_edge": 12.0,
    "table_op": 24.0,
    "cc_lookup": 4.0,
    "rng_draw": 32.0,
    "payload_xor": 3.0 / 8.0,
}


@dataclass(frozen=True)
class CostBreakdown:
    """Control/data cycle totals for one activity (recode or decode)."""

    control_cycles: float
    data_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.control_cycles + self.data_cycles

    def per(self, n: float) -> "CostBreakdown":
        """Cost normalised by *n* (operations, bytes, packets...)."""
        if n <= 0:
            return self
        return CostBreakdown(self.control_cycles / n, self.data_cycles / n)


@dataclass(frozen=True)
class CycleModel:
    """Op counts to CPU cycles by the module's weight table.

    Parameters
    ----------
    m:
        Payload size in bytes — scales every ``payload_xor``.
    """

    m: int = 256 * 1024

    def control_cycles(self, counter: OpCounter) -> float:
        """Cycles spent on control structures (vectors, graphs, tables),
        summed in ``CONTROL_OPS`` order: the order fixes every float of
        Figure 8."""
        cycles = 0.0
        for op in CONTROL_OPS:
            cycles += counter.get(op) * CYCLES_PER_OP[op]
        return cycles

    def data_cycles(self, counter: OpCounter) -> float:
        """Cycles spent XOR-ing payload bytes."""
        return counter.get("payload_xor") * self.m * CYCLES_PER_OP["payload_xor"]

    def breakdown(self, counter: OpCounter) -> CostBreakdown:
        """Control/data split for one counted activity."""
        return CostBreakdown(
            self.control_cycles(counter), self.data_cycles(counter)
        )

    def data_cycles_per_byte(self, counter: OpCounter, content_bytes: int) -> float:
        """Data-plane cycles normalised by bytes of useful content.

        Figure 8c/8d report "CPU cycles per byte": the data-plane cost
        divided by the content bytes processed (recoded packet bytes for
        8c, decoded content bytes for 8d).
        """
        if content_bytes <= 0:
            return 0.0
        return self.data_cycles(counter) / content_bytes
