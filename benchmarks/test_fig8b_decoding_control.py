"""FIG8B — decoding cost on control structures vs k (Fig. 8b, log scale).

Total cycles spent on the control plane to decode the full content.
RLNC pays the O(k^2) row operations of incremental Gauss reduction
(each touching k/64 words); LTNC pays O(k log k) peeling edges — the
figure the whole paper builds toward, orders of magnitude apart and
diverging with k.
"""

from __future__ import annotations

from repro.costmodel.cycles import CycleModel
from repro.experiments.fig8 import cost_series

from conftest import run_once_benchmark

PAPER_NOTE = (
    "paper (k=400..2000, log scale): RLNC ~10^8-10^9 cycles at k=2000, "
    "LTNC orders of magnitude below; gap widens with k"
)


def test_fig8b_decoding_control(benchmark, profile, reporter):
    ks = profile.k_cost_sweep
    model = CycleModel()

    def experiment():
        return cost_series("decoding", ks, seed=81, model=model)

    series = run_once_benchmark(benchmark, experiment)
    rep = reporter("fig8b_decoding_control")
    rep.line("total cycles to decode the content, control plane")
    rep.line(PAPER_NOTE)
    rep.line()
    rep.table(
        ["k", "LTNC", "RLNC", "RLNC/LTNC"],
        [
            [
                k,
                f"{series['ltnc'][i].control_cycles:.3e}",
                f"{series['rlnc'][i].control_cycles:.3e}",
                f"{series['rlnc'][i].control_cycles / series['ltnc'][i].control_cycles:.1f}x",
            ]
            for i, k in enumerate(ks)
        ],
    )
    rep.finish()

    ltnc = [p.control_cycles for p in series["ltnc"]]
    rlnc = [p.control_cycles for p in series["rlnc"]]
    # At the large end Gauss reduction must dominate belief propagation,
    # and the advantage must widen with k.
    assert rlnc[-1] > ltnc[-1]
    first_ratio = rlnc[0] / ltnc[0]
    last_ratio = rlnc[-1] / ltnc[-1]
    assert last_ratio > first_ratio
    # RLNC decoding is superlinear in k; LT decoding is ~k log k.
    assert rlnc[-1] / rlnc[0] > (ks[-1] / ks[0]) ** 1.5
    assert ltnc[-1] / ltnc[0] < (ks[-1] / ks[0]) ** 1.5
