"""Metrics collected by the dissemination simulator (§IV-B).

The paper evaluates three dissemination metrics:

* **convergence** (Fig. 7a) — proportion of nodes having decoded all
  *k* natives, as a function of time (gossip periods);
* **average time to complete** (Fig. 7b) — mean completion round over
  nodes, as a function of the code length;
* **communication overhead** (Fig. 7c) — data transfers beyond the *k*
  a node fundamentally needs, counted until its completion.  Transfers
  aborted by the binary feedback check cost a header exchange but no
  payload, hence do not count (that is the point of the mechanism).

:class:`DisseminationResult` carries the raw counters so benches can
also derive CPU-cost figures from the nodes' operation counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import SimulationError
from repro.gossip.driver import Counter, CountedResult

__all__ = ["DisseminationResult", "SessionResult"]


class SessionResult(CountedResult):
    """What the push-session results (epidemic, catalogue) share.

    Every session aborts at header time or ships its payload, which is
    then useful, redundant or lost; every completed node (or pair) was
    shipped at least the *k* its content needs.
    """

    LAWS: ClassVar[tuple[str, ...]] = (
        "sessions = aborted + data_transfers",
        "recoded_packets = sessions",
        "data_transfers = useful_transfers + redundant_transfers + lost_transfers",
        "duplicated_transfers + lost_transfers <= data_transfers",
    )
    COMPLETION_LAWS: ClassVar[tuple[str, ...]] = (
        *CountedResult.COMPLETION_LAWS,
        "data_until_complete >= k",
    )

    def completion_columns(self) -> dict[str, object]:
        """Adds ``data_until_complete`` and the subclass's ``completion_k()``."""
        data = [self.data_until_complete.get(key, 0) for key in self.completion_rounds]
        return {
            **super().completion_columns(),
            "data_until_complete": np.array(data),
            "k": self.completion_k(),
        }

    def abort_rate(self) -> float:
        """Fraction of sessions cut short by the binary feedback check."""
        if self.sessions == 0:
            return 0.0
        return self.aborted / self.sessions

    def key_metrics(self) -> dict[str, float | int | None]:
        """The scalar metrics of one run, as plain JSON-able values.

        Undefined statistics (nothing completed) are ``None`` rather
        than raised, so aggregation layers can stream summaries from
        heterogeneous trials without special-casing stragglers.
        """
        completed = self.completed_count
        return {
            "rounds": self.rounds,
            "completed": completed,
            "completed_fraction": self.completed_fraction(),
            "average_completion_round": (
                self.average_completion_round() if completed else None
            ),
            "overhead": self.overhead() if completed else None,
            "sessions": self.sessions,
            "aborted": self.aborted,
            "abort_rate": self.abort_rate(),
            "data_transfers": self.data_transfers,
            "useful_transfers": self.useful_transfers,
            "redundant_transfers": self.redundant_transfers,
            "lost_transfers": self.lost_transfers,
            "duplicated_transfers": self.duplicated_transfers,
            "churn_events": self.churn_events,
            "recoded_packets": self.recoded_packets,
        }


@dataclass
class DisseminationResult(SessionResult):
    """Outcome of one epidemic dissemination run.

    ``data_until_complete[node]`` counts the data packets *shipped
    towards* ``node`` up to (and including) the one that completed it:
    payloads lost in transit are included (the bytes were spent),
    aborted sessions are not (the binary check's point), and cache
    warm-up packets are (``prewarm`` pre-counts them), so
    ``data_until_complete[node] >= k`` always and the Fig. 7c overhead
    ``(data - k) / k`` is non-negative.  Nodes missing from the dict
    but present in ``completion_rounds`` default to exactly ``k`` —
    zero overhead — in :meth:`overhead`.

    Results themselves are never merged across processes; the parallel
    runner folds each trial's scalar :meth:`key_metrics` into a
    :class:`~repro.scenarios.aggregate.ScenarioAggregate`, whose
    ``merge`` re-orders whole trials by index.  Per-node dicts like
    this one therefore never cross trial boundaries — which is what
    keeps the merged and single-process aggregates byte-identical.
    """

    scheme: str
    n_nodes: int
    k: int
    rounds: int = 0
    completion_rounds: dict[int, int] = field(default_factory=dict)
    sessions: int = 0
    aborted: int = 0
    data_transfers: int = 0
    useful_transfers: int = 0
    redundant_transfers: int = 0
    lost_transfers: int = 0
    duplicated_transfers: int = 0
    churn_events: int = 0
    data_until_complete: dict[int, int] = field(default_factory=dict)
    recode_ops: OpCounter = field(default_factory=OpCounter)
    decode_ops: OpCounter = field(default_factory=OpCounter)
    recoded_packets: int = 0

    KIND: ClassVar[str] = "epidemic"
    COUNTERS: ClassVar[tuple[Counter, ...]] = (
        Counter("rounds"),
        Counter("n_nodes", telemetry="nodes"),
        Counter("completed_count", telemetry="completed_nodes"),
        Counter("sessions", trace="sessions", closing=True),
        Counter("aborted", trace="aborted", closing=True),
        Counter("data_transfers", closing=True),
        Counter("useful_transfers", trace="useful"),
        Counter("redundant_transfers", trace="redundant"),
        Counter("lost_transfers", trace="lost"),
        Counter("duplicated_transfers", trace="duplicated"),
        Counter("churn_events", closing=True),
        Counter("recoded_packets"),
    )

    # ------------------------------------------------------------------
    def completed_fraction(self) -> float:
        return self.completed_count / self.n_nodes

    def completion_percentile(self, q: float) -> float:
        """q-th percentile of completion rounds over completed nodes."""
        if not self.completion_rounds:
            raise SimulationError("no node completed; cannot take percentile")
        return float(
            np.percentile(list(self.completion_rounds.values()), q)
        )

    def overhead(self) -> float:
        """Fraction of unnecessary data transfers (Fig. 7c metric).

        For each completed node: data packets actually transferred to it
        until completion, minus the *k* it fundamentally needs, relative
        to *k*.  Aborted sessions ship no payload and are excluded —
        with an exact innovation check (WC lookups, RLNC partial Gauss)
        this is identically zero, the paper's baseline.
        """
        if not self.completion_rounds:
            raise SimulationError("no node completed; overhead undefined")
        extra = [
            self.data_until_complete.get(node, self.k) - self.k
            for node in self.completion_rounds
        ]
        return float(np.mean(extra)) / self.k

    def completion_k(self) -> int:
        return self.k

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Full JSON-able dump: key metrics plus each node's completion
        round (the Fig. 7a curve) and op counts."""
        payload = dict(self.key_metrics())
        payload.update(
            {
                "scheme": self.scheme,
                "n_nodes": self.n_nodes,
                "k": self.k,
                "completion_rounds": dict(self.completion_rounds),
                "recode_ops": self.recode_ops.snapshot(),
                "decode_ops": self.decode_ops.snapshot(),
            }
        )
        return payload

    # ------------------------------------------------------------------
    def record_round(self, round_index: int) -> None:
        """Close round *round_index*: the run has lasted one round more."""
        self.rounds = round_index + 1

    def __repr__(self) -> str:
        return (
            f"DisseminationResult(scheme={self.scheme!r}, N={self.n_nodes}, "
            f"k={self.k}, rounds={self.rounds}, "
            f"completed={self.completed_count}/{self.n_nodes})"
        )
