"""EXT — wireless broadcast with COPE-style snooping (§VI, §III-C2).

The paper closes on wireless sensor networks: broadcast media open
"many perspectives of further optimizations", and §III-C2 notes the
smart-construction feedback "can be partially obtained or inferred ...
by snooping packets sent by close nodes as in COPE".  This bench runs
LTNC over a connected random geometric radio topology and measures what
the inferred feedback buys: without an abort channel, broadcast floods
receivers with redundant packets; Algorithm 4 against snooped state
restores most of the lost efficiency.
"""

from __future__ import annotations

from repro.gossip.wireless import WirelessSimulator
from repro.rng import derive
from repro.topology.generators import random_geometric

from conftest import run_once_benchmark


def test_wireless_snooping(benchmark, profile, reporter):
    n = profile.n_nodes
    k = max(16, profile.k_default // 2)

    def experiment():
        topo = random_geometric(n, radius=0.3, rng=derive(99, "topo", n))
        results = {}
        for snoop in (False, True):
            sim = WirelessSimulator(
                "ltnc",
                topo,
                k,
                snoop=snoop,
                seed=derive(99, "wireless", int(snoop)),
                max_rounds=20_000,
                node_kwargs={"aggressiveness": 0.01},
            )
            results[snoop] = sim.run()
        return topo, results

    topo, results = run_once_benchmark(benchmark, experiment)
    rep = reporter("wireless_snooping")
    rep.line(
        f"{n} radios on the unit square, radius {topo.radius:.2f} "
        f"(avg degree {topo.average_degree():.1f}), k = {k}"
    )
    rep.line("§VI/§III-C2: snooped feedback drives Algorithm 4 over the air")
    rep.line()
    rep.table(
        ["snooping", "nodes done", "avg completion", "useful receptions",
         "gain"],
        [
            [
                "on" if snoop else "off",
                f"{r.completed_count}/{r.n_nodes}",
                f"{r.average_completion_round():.0f}"
                if r.completed_count
                else "stalled",
                f"{r.usefulness() * 100:.0f}%",
                f"{r.broadcast_gain():.1f}x",
            ]
            for snoop, r in results.items()
        ],
    )
    rep.finish()

    off, on = results[False], results[True]
    assert on.all_complete
    assert on.usefulness() > off.usefulness()
    if off.all_complete:
        assert (
            on.average_completion_round() < off.average_completion_round()
        )
