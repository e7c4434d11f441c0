"""In-text statistics harness (§III-B, §III-C1).

The paper quotes four simulation statistics outside its figures:

* TXT1 — the first picked degree is accepted 99.9 % of the time, and
  rejected picks average 1.02 retries (§III-B1);
* TXT2 — Algorithm 1 reaches the target degree 95 % of the time with
  0.2 % average relative deviation (§III-B2);
* TXT3 — the relative standard deviation of native occurrences in sent
  packets is 0.1 % (§III-B3);
* TXT4 — redundancy detection cuts redundant insertions into the data
  structures by 31 % (§III-C1).

TXT1-TXT3 pool the ``ltnc:*`` telemetry of every node of Monte-Carlo
fleet runs of the ``text_stats`` scenario group
(:mod:`repro.scenarios.presets`); :meth:`RecodingStats.from_section`
reads them off the cell's telemetry section.  TXT4 feeds one node
identical, redundancy-rich packet streams twice (detection on / off)
and labels every packet with an exact rank oracle — the oracle is
test-side instrumentation and is not charged to the node's counters.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

from repro.core.node import PPM, LtncNode, LtncStats
from repro.gf2.matrix import IncrementalRref
from repro.lt.distributions import robust_soliton
from repro.lt.encoder import LTEncoder
from repro.rng import derive, derive_seed, make_rng
from repro.scenarios.fleet import FleetRunner

__all__ = [
    "RecodingStats",
    "occurrence_rsd",
    "run_with_telemetry",
    "RedundancyStats",
    "measure_redundant_insertions",
]


def run_with_telemetry(cells, n_trials: int, seed: int, n_workers: int = 1):
    """Run *cells* on the fleet; ``(aggregates, merged telemetry sections)``."""
    with tempfile.TemporaryDirectory() as telemetry_dir:
        runner = FleetRunner(n_workers=n_workers, telemetry_dir=telemetry_dir)
        aggregates = runner.run_grid(cells, n_trials, seed)
    return aggregates, runner.last_telemetry


def occurrence_rsd(section: dict[str, object]) -> float:
    """TXT3 of one telemetry section: the mean occurrence RSD over the
    nodes that recorded one (0.0 when none did)."""
    hist = section["histograms"].get("ltnc:occurrence_rsd_ppm")
    return hist["sum"] / hist["count"] / PPM if hist else 0.0


@dataclass(frozen=True)
class RecodingStats:
    """TXT1-TXT3 pooled over the LTNC nodes of Monte-Carlo disseminations."""

    first_pick_acceptance: float
    average_retries: float
    build_hit_rate: float
    average_relative_deviation: float
    occurrence_rsd: float
    packets_recoded: int

    @classmethod
    def from_section(cls, section: dict[str, object]) -> "RecodingStats":
        """The statistics pooled over every LTNC node of a telemetry
        *section* (one cell's trials, merged)."""
        pooled = LtncStats.from_counters(section["counters"])
        return cls(
            first_pick_acceptance=pooled.first_pick_acceptance,
            average_retries=pooled.average_retries,
            build_hit_rate=pooled.build_hit_rate,
            average_relative_deviation=pooled.average_relative_deviation,
            occurrence_rsd=occurrence_rsd(section),
            packets_recoded=pooled.packets_sent,
        )


@dataclass(frozen=True)
class RedundancyStats:
    """TXT4: redundant insertions with and without Algorithm 3."""

    redundant_inserted_without: int
    redundant_inserted_with: int
    stream_length: int
    stream_redundant: int

    @property
    def reduction(self) -> float:
        """Relative cut in redundant insertions (paper: 31 %)."""
        if self.redundant_inserted_without == 0:
            return 0.0
        return 1.0 - (
            self.redundant_inserted_with / self.redundant_inserted_without
        )


def _redundancy_rich_stream(k: int, length: int, seed: int):
    """An LT stream mixed with recodings of itself — realistic traffic.

    Recoded packets from warm intermediate nodes carry exactly the kind
    of low-degree redundancy the detector exists to catch.
    """
    encoder = LTEncoder(k, robust_soliton(k), rng=derive(seed, "stream", k))
    relay = LtncNode(99, k, rng=derive(seed, "relay", k))
    rng = make_rng(int(derive(seed, "mix", k).integers(2**32)))
    packets = []
    for _ in range(length):
        fresh = encoder.next_packet()
        relay.receive(fresh.copy())
        if relay.can_send() and rng.random() < 0.5:
            packets.append(relay.make_packet())
        else:
            packets.append(fresh)
    return packets


def measure_redundant_insertions(
    k: int = 128,
    stream_length: int | None = None,
    seed: int = 0,
    monte_carlo: int = 3,
) -> RedundancyStats:
    """TXT4: replay each stream into two nodes, detection off vs on.

    A packet counts as a *redundant insertion* when the exact rank
    oracle says it was non-innovative on arrival yet it was stored in
    the node's Tanner graph anyway (wasting memory and future XORs).
    Counts pool *monte_carlo* streams, stream *i* seeded by its index.
    """
    length = stream_length if stream_length is not None else 4 * k
    redundant_inserted = {False: 0, True: 0}
    stream_redundant = 0
    for stream in range(monte_carlo):
        stream_seed = derive_seed(seed, "txt4", stream)
        packets = _redundancy_rich_stream(k, length, stream_seed)
        for detect in (False, True):
            rng = derive(stream_seed, "sink", int(detect))
            node = LtncNode(0, k, rng=rng, detect_redundancy=detect)
            oracle = IncrementalRref(k)
            for packet in packets:
                was_innovative = oracle.is_innovative(packet.vector)
                oracle.insert(packet.vector)
                before = node.decoder.graph.stored_count
                node.receive(packet.copy())
                stored = node.decoder.graph.stored_count > before
                if stored and not was_innovative:
                    redundant_inserted[detect] += 1
                if detect and not was_innovative:
                    stream_redundant += 1
    return RedundancyStats(
        redundant_inserted_without=redundant_inserted[False],
        redundant_inserted_with=redundant_inserted[True],
        stream_length=length,
        stream_redundant=stream_redundant,
    )
