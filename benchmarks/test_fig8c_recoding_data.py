"""FIG8C — recoding cost on data vs k (Fig. 8c).

Cycles per emitted payload byte.  RLNC XORs ~ln k + 20 payloads into
every fresh packet; LTNC combines only the few packets Algorithm 1
accepts (plus the rare refinement path) — "since the average degree of
encoded packets sent is lower for LTNC, the cost of recoding data is
lower for LTNC" (§IV-B).  Both stay roughly flat in k.
"""

from __future__ import annotations

from repro.costmodel.cycles import CycleModel
from repro.experiments.fig8 import cost_series

from conftest import run_once_benchmark

PAPER_NOTE = (
    "paper (k=400..2000): RLNC ~550 cycles/byte, LTNC well below; both "
    "roughly flat in k (sparse codes / low-degree combinations)"
)


def test_fig8c_recoding_data(benchmark, profile, reporter):
    ks = profile.k_cost_sweep
    model = CycleModel()

    def experiment():
        return cost_series(
            "recoding",
            ks,
            samples=profile.recode_samples,
            seed=82,
            model=model,
        )

    series = run_once_benchmark(benchmark, experiment)
    rep = reporter("fig8c_recoding_data")
    rep.line("cycles per emitted payload byte, data plane")
    rep.line(PAPER_NOTE)
    rep.line()
    rep.table(
        ["k", "LTNC", "RLNC", "RLNC/LTNC"],
        [
            [
                k,
                f"{series['ltnc'][i].data_cycles_per_byte:.2f}",
                f"{series['rlnc'][i].data_cycles_per_byte:.2f}",
                f"{series['rlnc'][i].data_cycles_per_byte / series['ltnc'][i].data_cycles_per_byte:.1f}x",
            ]
            for i, k in enumerate(ks)
        ],
    )
    rep.finish()

    ltnc = [p.data_cycles_per_byte for p in series["ltnc"]]
    rlnc = [p.data_cycles_per_byte for p in series["rlnc"]]
    # RLNC above LTNC at every k.
    assert all(r > l for r, l in zip(rlnc, ltnc))
    # Both scale well: per-byte cost grows far slower than k.
    assert rlnc[-1] / rlnc[0] < 2.0
    assert ltnc[-1] / ltnc[0] < (ks[-1] / ks[0]) ** 0.75
