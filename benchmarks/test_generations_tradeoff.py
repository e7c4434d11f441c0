"""EXT — the generations trade-off (§I 'traditional optimizations').

Not a paper figure: the paper asserts generations apply directly to
LTNC; this bench quantifies the trade-off they bring.  For a fixed
total content size, smaller generations shrink code-vector headers and
decoding state but inflate the packet overhead (the LT epsilon grows
as code length shrinks, plus a coupon-collector tail across
generations).
"""

from __future__ import annotations

from repro.costmodel.counters import OpCounter
from repro.costmodel.cycles import CycleModel
from repro.generations import GenerationNode, GenerationSource
from repro.rng import derive

from conftest import run_once_benchmark


def test_generations_tradeoff(benchmark, profile, reporter):
    k_total = profile.k_default
    sizes = [g for g in (8, 16, 32, 64) if g < k_total] + [k_total]
    model = CycleModel()

    def experiment():
        rows = {}
        for g in sizes:
            source = GenerationSource(
                k_total, g, rng=derive(97, "gen-src", g)
            )
            sink = GenerationNode(
                0, k_total, g, rng=derive(97, "gen-sink", g)
            )
            packets = 0
            budget = 80 * k_total
            while not sink.is_complete() and budget:
                sink.receive(source.next_packet())
                packets += 1
                budget -= 1
            counter = OpCounter(sink.total_ops("decode"))
            rows[g] = {
                "packets": packets,
                "overhead": (packets - k_total) / k_total,
                "control_cycles": model.control_cycles(counter),
                "header_bits": g,
                "complete": sink.is_complete(),
            }
        return rows

    rows = run_once_benchmark(benchmark, experiment)
    rep = reporter("generations_tradeoff")
    rep.line(f"k_total = {k_total}; source -> sink feed until complete")
    rep.line("claim (§I): generations apply directly to LTNC; smaller g "
             "trades packet overhead for header and decoding state")
    rep.line()
    rep.table(
        ["g", "packets", "overhead", "decode control cycles", "header bits"],
        [
            [
                g,
                r["packets"],
                f"{r['overhead'] * 100:.0f}%",
                f"{r['control_cycles']:.2e}",
                r["header_bits"],
            ]
            for g, r in rows.items()
        ],
    )
    rep.finish()

    assert all(r["complete"] for r in rows.values())
    smallest, largest = rows[sizes[0]], rows[k_total]
    # The robust direction of the trade-off: smaller generations always
    # shrink decoding control state and headers.  The *packet* count can
    # go either way — at bench-scale k the per-generation epsilon beats
    # the monolithic one, while at paper-scale k the monolithic code is
    # tighter — so it is reported, not asserted.
    assert smallest["control_cycles"] < largest["control_cycles"]
    assert smallest["header_bits"] < largest["header_bits"]
