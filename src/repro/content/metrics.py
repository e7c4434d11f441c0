"""Metrics for catalogue dissemination runs.

A catalogue run is scored over **interest pairs** — one (node, content)
pair per entry of a node's interest set; a pair completes when the node
decodes that content's *k* natives.  :class:`CatalogueResult` keeps the
aggregate counters shape-compatible with
:class:`~repro.gossip.metrics.DisseminationResult.key_metrics` (so the
scenario aggregation, benches and golden tests treat single-content and
catalogue trials uniformly) and adds:

* **per-content metrics** — ``content:<name>:<metric>`` keys for
  completion, delay and overhead of each catalogue entry;
* **cache metrics** — ``cache_hit_ratio`` (fraction of delivered data
  transfers served out of a node's cache rather than its own interest
  set), ``edge_served_fraction`` (fraction served by *any* overlay node
  rather than the origin), plus eviction/reject counts.

``data_until_complete`` mirrors the single-content semantics per pair:
data packets shipped towards the pair until it completed (lost payloads
included — the bytes were spent), so per-pair overhead is
``(data - k) / k`` exactly as in Fig. 7c.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import SimulationError
from repro.gossip.driver import Counter
from repro.gossip.metrics import SessionResult

__all__ = ["CatalogueResult"]

Pair = tuple[int, int]  # (content index, node id)


@dataclass
class CatalogueResult(SessionResult):
    """Outcome of one catalogue dissemination run."""

    n_nodes: int
    content_names: tuple[str, ...]
    content_ks: tuple[int, ...]
    n_pairs: int
    #: interested nodes per content (the denominator of per-content
    #: completion), from the demand assignment.
    pairs_per_content: tuple[int, ...]
    rounds: int = 0
    completion_rounds: dict[Pair, int] = field(default_factory=dict)
    data_until_complete: dict[Pair, int] = field(default_factory=dict)
    series_rounds: list[int] = field(default_factory=list)
    series_completed: list[float] = field(default_factory=list)
    sessions: int = 0
    aborted: int = 0
    unwanted: int = 0
    data_transfers: int = 0
    useful_transfers: int = 0
    redundant_transfers: int = 0
    lost_transfers: int = 0
    duplicated_transfers: int = 0
    churn_events: int = 0
    recoded_packets: int = 0
    # -- cache accounting ---------------------------------------------
    cache_served: int = 0
    edge_served: int = 0
    cache_stored: int = 0
    cache_evictions: int = 0
    cache_rejects: int = 0
    # -- per-content session counters ---------------------------------
    content_data_transfers: dict[int, int] = field(default_factory=dict)

    KIND: ClassVar[str] = "catalogue"
    COUNTERS: ClassVar[tuple[Counter, ...]] = (
        Counter("rounds"),
        Counter("n_pairs", telemetry="pairs"),
        Counter("completed_count", telemetry="completed_pairs"),
        Counter("sessions", trace="sessions", closing=True),
        Counter("aborted", trace="aborted", closing=True),
        Counter("unwanted", trace="unwanted"),
        Counter("data_transfers", closing=True),
        Counter("useful_transfers", trace="useful"),
        Counter("redundant_transfers", trace="redundant"),
        Counter("lost_transfers", trace="lost"),
        Counter("duplicated_transfers"),
        Counter("cache_served", trace="cache_served", closing=True),
        Counter("cache_stored", trace="cache_stored"),
        Counter("cache_evictions", trace="cache_evictions"),
        Counter("cache_rejects", trace="cache_rejects"),
        Counter("edge_served"),
        Counter("churn_events", closing=True),
        Counter("recoded_packets"),
        Counter("content_data_transfers", telemetry="content:*:data_transfers"),
    )
    LAWS: ClassVar[tuple[str, ...]] = (
        *SessionResult.LAWS,
        "unwanted <= aborted + redundant_transfers",
        "cache_served <= edge_served",
        "edge_served <= data_transfers",
        "content_data_transfers = data_transfers",
    )

    # ------------------------------------------------------------------
    @property
    def n_contents(self) -> int:
        return len(self.content_names)

    @property
    def all_complete(self) -> bool:
        return self.completed_count == self.n_pairs

    def completed_fraction(self) -> float:
        if self.n_pairs == 0:
            return 1.0
        return self.completed_count / self.n_pairs

    def overhead(self) -> float:
        """Mean per-pair ``(data - k) / k`` over completed pairs."""
        if not self.completion_rounds:
            raise SimulationError("no pair completed; overhead undefined")
        ratios = [
            (self.data_until_complete.get(pair, self.content_ks[pair[0]])
             - self.content_ks[pair[0]]) / self.content_ks[pair[0]]
            for pair in self.completion_rounds
        ]
        return float(np.mean(ratios))

    def cache_hit_ratio(self) -> float:
        """Fraction of data transfers served out of a sender's cache."""
        if self.data_transfers == 0:
            return 0.0
        return self.cache_served / self.data_transfers

    def edge_served_fraction(self) -> float:
        """Fraction of data transfers served by overlay nodes (not origin)."""
        if self.data_transfers == 0:
            return 0.0
        return self.edge_served / self.data_transfers

    # ------------------------------------------------------------------
    def content_metrics(self, content: int, n_pairs: int) -> dict[str, object]:
        """The per-content scalar metrics (``n_pairs`` = interested nodes)."""
        done = [p for p in self.completion_rounds if p[0] == content]
        k = self.content_ks[content]
        fraction = (len(done) / n_pairs) if n_pairs else None
        average = (
            float(np.mean([self.completion_rounds[p] for p in done]))
            if done
            else None
        )
        over = (
            float(np.mean([
                (self.data_until_complete.get(p, k) - k) / k for p in done
            ]))
            if done
            else None
        )
        return {
            "completed_fraction": fraction,
            "average_completion_round": average,
            "overhead": over,
            "data_transfers": self.content_data_transfers.get(content, 0),
        }

    def key_metrics(self) -> dict[str, float | int | None]:
        """Scalar metrics of one run, flat and JSON-able.

        The session block of :meth:`SessionResult.key_metrics` plus the
        cache counters; per-content metrics follow under
        ``content:<name>:<metric>`` keys (stable across the trials of a
        spec, so the mergeable aggregates summarise them like any other
        scalar).
        """
        metrics = super().key_metrics()
        metrics.update({
            "unwanted": self.unwanted,
            "cache_hit_ratio": self.cache_hit_ratio(),
            "edge_served_fraction": self.edge_served_fraction(),
            "cache_stored": self.cache_stored,
            "cache_evictions": self.cache_evictions,
            "cache_rejects": self.cache_rejects,
        })
        for content, name in enumerate(self.content_names):
            per = self.content_metrics(content, self.pairs_per_content[content])
            for key, value in per.items():
                metrics[f"content:{name}:{key}"] = value
        return metrics

    def completion_k(self) -> np.ndarray:
        return np.array([self.content_ks[c] for c, _ in self.completion_rounds])

    # ------------------------------------------------------------------
    def record_round(self, round_index: int) -> None:
        """Append one point of the pair-completion convergence series."""
        self.rounds = round_index + 1
        self.series_rounds.append(round_index)
        self.series_completed.append(self.completed_fraction())

    def __repr__(self) -> str:
        return (
            f"CatalogueResult(C={self.n_contents}, N={self.n_nodes}, "
            f"rounds={self.rounds}, "
            f"pairs={self.completed_count}/{self.n_pairs})"
        )
