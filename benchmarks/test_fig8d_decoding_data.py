"""FIG8D — decoding cost on data vs k (Fig. 8d, log scale).

Cycles per decoded content byte — the headline claim: "For k = 2,048,
LTNC decreases the decoding complexity by more than 99 %, thanks to
belief propagation" (§IV-B).  Gauss reduction XORs O(k) payload rows
per decoded native; peeling XORs one payload per Tanner edge, i.e.
O(log k) per native.
"""

from __future__ import annotations

from repro.costmodel.cycles import CycleModel
from repro.experiments.fig8 import cost_series

from conftest import run_once_benchmark

PAPER_NOTE = (
    "paper (k=400..2000, log scale): RLNC grows ~linearly in k, LTNC "
    "stays low and flat; >=99% reduction at k=2048"
)


def test_fig8d_decoding_data(benchmark, profile, reporter):
    ks = profile.k_cost_sweep
    model = CycleModel()

    def experiment():
        return cost_series("decoding", ks, seed=83, model=model)

    series = run_once_benchmark(benchmark, experiment)
    rep = reporter("fig8d_decoding_data")
    rep.line("cycles per decoded content byte, data plane")
    rep.line(PAPER_NOTE)
    rep.line()
    rows = []
    for i, k in enumerate(ks):
        ltnc = series["ltnc"][i].data_cycles_per_byte
        rlnc = series["rlnc"][i].data_cycles_per_byte
        rows.append(
            [k, f"{ltnc:.2f}", f"{rlnc:.2f}", f"{(1 - ltnc / rlnc) * 100:.1f}%"]
        )
    rep.table(["k", "LTNC", "RLNC", "reduction"], rows)
    rep.line()
    last = ks[-1]
    reduction = 1 - (
        series["ltnc"][-1].data_cycles_per_byte
        / series["rlnc"][-1].data_cycles_per_byte
    )
    rep.line(
        f"decoding data-cost reduction at k={last}: {reduction * 100:.1f}% "
        "(paper: >99% at k=2048)"
    )
    rep.finish()

    ltnc = [p.data_cycles_per_byte for p in series["ltnc"]]
    rlnc = [p.data_cycles_per_byte for p in series["rlnc"]]
    assert all(r > l for r, l in zip(rlnc, ltnc))
    # RLNC per-byte cost grows ~linearly with k; LTNC stays ~flat.
    assert rlnc[-1] / rlnc[0] > 0.5 * (ks[-1] / ks[0])
    assert ltnc[-1] / ltnc[0] < 3.0
    # Headline: the reduction at the top of the sweep is dramatic.
    assert reduction > 0.80
