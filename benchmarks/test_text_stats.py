"""TXT1-TXT4 — the in-text statistics of §III-B and §III-C1.

* TXT1: first picked degree accepted 99.9 % of the time; rejected picks
  average 1.02 retries.
* TXT2: Algorithm 1 reaches the target degree 95 % of the time, with a
  0.2 % average relative deviation.
* TXT3: relative standard deviation of native occurrences in sent
  packets is 0.1 %.
* TXT4: redundancy detection cuts redundant insertions by 31 %.

Small-k caveat: the paper measures at k = 2,048 where the Robust
Soliton is far smoother than at bench scale; the acceptance/hit rates
reproduce tightly, the RSD and reduction reproduce in order of
magnitude and direction.
"""

from __future__ import annotations

from repro.experiments.textstats import (
    RecodingStats,
    measure_redundant_insertions,
    run_with_telemetry,
)
from repro.scenarios import expand_scenarios

from conftest import WORKERS, run_once_benchmark


def test_text_stats(benchmark, profile, reporter):
    n, k = profile.n_nodes, profile.k_default

    def experiment():
        (cell,) = expand_scenarios(["text_stats"], profile)
        _, telemetry = run_with_telemetry(
            [cell], profile.monte_carlo, 90, WORKERS
        )
        recoding = RecodingStats.from_section(telemetry[cell.name])
        redundancy = measure_redundant_insertions(
            k=k, seed=91, monte_carlo=profile.monte_carlo
        )
        return recoding, redundancy

    recoding, redundancy = run_once_benchmark(benchmark, experiment)
    rep = reporter("text_stats")
    rep.line(
        f"N = {n}, k = {k}; {recoding.packets_recoded} packets recoded "
        f"over {profile.monte_carlo} runs"
    )
    rep.line()
    rep.table(
        ["statistic", "paper", "measured"],
        [
            [
                "TXT1 first-degree acceptance",
                "99.9%",
                f"{recoding.first_pick_acceptance * 100:.2f}%",
            ],
            [
                "TXT1 avg retries when rejected",
                "1.02",
                f"{recoding.average_retries:.2f}",
            ],
            [
                "TXT2 build hit rate",
                "95%",
                f"{recoding.build_hit_rate * 100:.1f}%",
            ],
            [
                "TXT2 avg relative deviation",
                "0.2%",
                f"{recoding.average_relative_deviation * 100:.2f}%",
            ],
            [
                "TXT3 occurrence RSD",
                "0.1%",
                f"{recoding.occurrence_rsd * 100:.2f}%",
            ],
            [
                "TXT4 redundant-insertion cut",
                "31%",
                f"{redundancy.reduction * 100:.1f}%",
            ],
        ],
    )
    rep.line()
    rep.line(
        f"TXT4 detail: {redundancy.redundant_inserted_without} redundant "
        f"insertions without detection vs {redundancy.redundant_inserted_with} "
        f"with, over {profile.monte_carlo} streams of "
        f"{redundancy.stream_length} packets "
        f"({redundancy.stream_redundant} redundant at arrival)"
    )
    rep.finish()

    # At bench scale (small k) nodes are starved early in the epidemic,
    # so rejected first picks retry more than the paper's steady-state
    # 1.02; the acceptance rate itself reproduces tightly.
    assert recoding.first_pick_acceptance >= 0.90
    assert recoding.average_retries < 10.0
    assert recoding.build_hit_rate >= 0.85
    assert recoding.average_relative_deviation <= 0.03
    assert recoding.occurrence_rsd < 0.6
    assert redundancy.reduction > 0.10
