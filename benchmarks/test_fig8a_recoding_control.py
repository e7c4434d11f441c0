"""FIG8A — recoding cost on control structures vs k (Fig. 8a).

Cycles per recoded packet spent on code vectors and complementary data
structures.  Expected shape: LTNC above RLNC (building and refining do
real index work; RLNC only XORs a sparse set of headers), both growing
roughly linearly with k.

Note on magnitude: our exact-argmin refinement scans occurrence buckets
without the paper's (unstated) engineering caps, so the LTNC/RLNC
*factor* overshoots the paper's ~4x; the ordering and the linear growth
— the claims the figure makes — hold.  See EXPERIMENTS.md.
"""

from __future__ import annotations

from repro.costmodel.cycles import CycleModel
from repro.experiments.fig8 import cost_series

from conftest import run_once_benchmark

PAPER_NOTE = (
    "paper (k=400..2000, cycles x1000): LTNC above RLNC, both ~linear; "
    "LTNC ~1200k cycles at k=2000"
)


def test_fig8a_recoding_control(benchmark, profile, reporter):
    ks = profile.k_cost_sweep
    model = CycleModel()

    def experiment():
        return cost_series(
            "recoding",
            ks,
            samples=profile.recode_samples,
            seed=80,
            model=model,
        )

    series = run_once_benchmark(benchmark, experiment)
    rep = reporter("fig8a_recoding_control")
    rep.line("cycles per recoded packet, control plane (x1000)")
    rep.line(PAPER_NOTE)
    rep.line()
    rep.table(
        ["k", "LTNC", "RLNC", "LTNC/RLNC"],
        [
            [
                k,
                f"{series['ltnc'][i].control_cycles / 1000:.1f}",
                f"{series['rlnc'][i].control_cycles / 1000:.1f}",
                f"{series['ltnc'][i].control_cycles / series['rlnc'][i].control_cycles:.1f}x",
            ]
            for i, k in enumerate(ks)
        ],
    )
    rep.finish()

    ltnc = [p.control_cycles for p in series["ltnc"]]
    rlnc = [p.control_cycles for p in series["rlnc"]]
    # LTNC above RLNC at every k; both grow with k.
    assert all(a > b for a, b in zip(ltnc, rlnc))
    assert ltnc[-1] > ltnc[0]
    assert rlnc[-1] > rlnc[0]
    # Roughly linear: cost grows no faster than ~k^2 over the sweep.
    growth = ltnc[-1] / ltnc[0]
    k_growth = ks[-1] / ks[0]
    assert growth < k_growth**2
