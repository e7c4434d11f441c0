#!/usr/bin/env python3
"""Wireless sensor field: broadcast dissemination with snooping.

The paper's closing perspective (§VI): wireless media broadcast for
free, but there is no abort channel — a receiver cannot stop a
transfer it does not need, so redundant receptions pile up.  §III-C2
hints at the fix: infer each neighbour's state by *snooping* the
packets it broadcasts (a node provably has what it sends, COPE-style)
and drive Algorithm 4's smart construction with the inferred state.

This example disseminates a firmware image over a connected radio
topology with snooping off and on.

Run:  python examples/wireless_snooping.py
"""

from repro.gossip import WirelessSimulator
from repro.topology import random_geometric

N_RADIOS = 20
K = 48


def main() -> None:
    topo = random_geometric(N_RADIOS, radius=0.3, rng=3)
    print(f"{N_RADIOS} radios on the unit square, radio range "
          f"{topo.radius:.2f}, average degree {topo.average_degree():.1f}\n")
    header = (f"{'snooping':<9} {'rounds':>7} {'transmissions':>14} "
              f"{'useful rx':>10} {'broadcast gain':>15}")
    print(header)
    print("-" * len(header))
    for snoop in (False, True):
        sim = WirelessSimulator(
            "ltnc",
            topo,
            K,
            snoop=snoop,
            seed=4,
            max_rounds=20_000,
            node_kwargs={"aggressiveness": 0.01},
        )
        result = sim.run()
        print(f"{'on' if snoop else 'off':<9} {result.rounds:>7} "
              f"{result.transmissions:>14} "
              f"{result.usefulness() * 100:>9.0f}% "
              f"{result.broadcast_gain():>14.1f}x")
    print(
        "\nreading the table: each broadcast reaches several neighbours\n"
        "(the gain column), but without an abort channel most receptions\n"
        "are redundant.  Snooping rebuilds each neighbour's component\n"
        "structure from what it transmitted and aims low-degree packets\n"
        "where they are provably innovative — most of the lost\n"
        "efficiency comes back without a single feedback message."
    )


if __name__ == "__main__":
    main()
