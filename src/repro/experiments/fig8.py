"""Figure 8 harness — computational cost of recoding and decoding.

The paper times its C++ implementation in CPU cycles on a Xeon; we
count elementary operations in the hot loops and convert them with the
calibrated :class:`~repro.costmodel.cycles.CycleModel` (DESIGN.md §3).
Four panels, each versus the code length k:

* **8a recoding (control)** — cycles per recoded packet spent on code
  vectors and complementary structures.  LTNC sits above RLNC (build +
  refine do real work; RLNC just XORs a sparse set of headers).
* **8b decoding (control)** — total cycles to decode the content.
  RLNC pays the O(k^2) row operations of Gauss reduction; LTNC pays
  O(k log k) peeling edges: orders of magnitude apart (log scale).
* **8c recoding (data)** — cycles per emitted payload byte.  RLNC XORs
  ~``ln k + 20`` payloads per packet; LTNC combines a handful.
* **8d decoding (data)** — cycles per decoded content byte; the
  headline 99 % reduction at k = 2,048.

Measurements run in symbolic mode: payload XORs are counted, never
executed, so the figures are exact operation counts independent of the
host machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.costmodel.counters import OpCounter
from repro.costmodel.cycles import CostBreakdown, CycleModel
from repro.errors import SimulationError
from repro.schemes import WARM_FILL, CostProbe, get_scheme

__all__ = [
    "CostPoint",
    "WARM_FILL",
    "measure_recoding",
    "measure_decoding",
    "cost_series",
]


@dataclass(frozen=True)
class CostPoint:
    """One (scheme, k) measurement for a Figure 8 panel."""

    scheme: str
    k: int
    control_cycles: float
    data_cycles: float
    data_cycles_per_byte: float

    @property
    def total_cycles(self) -> float:
        return self.control_cycles + self.data_cycles


def _cost_probe(scheme: str, panel: str) -> CostProbe:
    """The scheme's Figure-8 probe, or a friendly error if it has none.

    Warming strategies and packet streams live on the scheme
    descriptors (:mod:`repro.schemes.builtin`), so a newly registered
    scheme shows up in the cost panels by carrying a
    :class:`~repro.schemes.descriptor.CostProbe` — no edits here.
    """
    probe = get_scheme(scheme).cost_probe
    hook = "warm" if panel == "recoding" else "decode_stream"
    if probe is None or getattr(probe, hook) is None:
        raise SimulationError(f"no {panel} cost model for scheme {scheme!r}")
    return probe


def measure_recoding(
    scheme: str,
    k: int,
    samples: int = 200,
    seed: int = 0,
    model: CycleModel | None = None,
) -> CostPoint:
    """Figures 8a/8c: average cost of producing one recoded packet."""
    model = model if model is not None else CycleModel()
    node = _cost_probe(scheme, "recoding").warm(k, seed)
    counter = node.recode_counter
    before = counter.snapshot()
    for _ in range(samples):
        node.make_packet()
    delta = OpCounter(counter.diff(before))
    breakdown = model.breakdown(delta).per(samples)
    return CostPoint(
        scheme=scheme,
        k=k,
        control_cycles=breakdown.control_cycles,
        data_cycles=breakdown.data_cycles,
        data_cycles_per_byte=breakdown.data_cycles / model.m,
    )


def measure_decoding(
    scheme: str,
    k: int,
    seed: int = 0,
    model: CycleModel | None = None,
) -> CostPoint:
    """Figures 8b/8d: total cost of decoding the whole content.

    A fresh node consumes a stream from a source of its own scheme
    until it decodes all k natives; the decode-side counters are then
    weighed.  Data cycles are normalised per byte of decoded content
    (k * m bytes), matching the paper's "CPU cycles per byte" axis.
    """
    model = model if model is not None else CycleModel()
    node, next_packet = _cost_probe(scheme, "decoding").decode_stream(k, seed)
    counter = node.decode_counter
    guard = 60 * k + 1000
    while not node.is_complete():
        node.receive(next_packet())
        guard -= 1
        if guard <= 0:
            raise SimulationError(
                f"{scheme} failed to decode k={k} within the packet budget"
            )
    breakdown: CostBreakdown = model.breakdown(counter)
    content_bytes = k * model.m
    return CostPoint(
        scheme=scheme,
        k=k,
        control_cycles=breakdown.control_cycles,
        data_cycles=breakdown.data_cycles,
        data_cycles_per_byte=breakdown.data_cycles / content_bytes,
    )


def cost_series(
    operation: str,
    ks: tuple[int, ...],
    schemes: tuple[str, ...] = ("ltnc", "rlnc"),
    samples: int = 200,
    seed: int = 0,
    model: CycleModel | None = None,
) -> dict[str, list[CostPoint]]:
    """A full Figure 8 panel: one series per scheme over the k sweep.

    *operation* is ``"recoding"`` or ``"decoding"``.
    """
    if operation not in ("recoding", "decoding"):
        raise SimulationError(
            f"operation must be 'recoding' or 'decoding', got {operation!r}"
        )

    def measure(scheme: str, k: int) -> CostPoint:
        if operation == "recoding":
            return measure_recoding(scheme, k, samples=samples, seed=seed, model=model)
        return measure_decoding(scheme, k, seed=seed, model=model)

    return {scheme: [measure(scheme, k) for k in ks] for scheme in schemes}
