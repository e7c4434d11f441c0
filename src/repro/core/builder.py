"""Algorithm 1 — building a fresh encoded packet of a given degree.

Given a target degree *d* (drawn from the Robust Soliton) and the
packets available at the node, find a subset whose XOR has degree
exactly *d*.  The exact problem is a collision-aware subset sum
(NP-complete, §III-B2); LTNC solves it greedily:

* examine packets by decreasing degree, starting from *d*;
* pick uniformly at random inside each degree class;
* accept a packet iff XOR-ing it in strictly increases the degree of
  the packet under construction without exceeding *d* — this rejects
  the *collisions* (overlapping supports) that would shrink the result.

The built degree can fall short of *d* (the paper measures 95 % exact
hits with 0.2 % average relative deviation — reproduced by the
text-stats bench); it never exceeds it.

The builder operates on the node's *reduced* state: degree-1 items are
decoded natives and higher-degree items are Tanner-graph packets whose
supports exclude decoded natives.  The XOR of any subset of those is a
valid fresh encoded packet, and its code vector is the symmetric
difference of the supports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.degree_index import DegreeIndex
from repro.costmodel.counters import OpCounter
from repro.lt.tanner import TannerGraph

__all__ = ["BuildResult", "build_packet"]


@dataclass
class BuildResult:
    """Outcome of one Algorithm-1 run.

    Attributes
    ----------
    support:
        Native indices of the built packet (symmetric difference of the
        accepted items' supports).
    payload:
        Combined payload, or ``None`` in symbolic mode.
    target:
        The degree Algorithm 1 was asked for.
    picked:
        Items accepted into the combination, as ``(degree-class, id)``
        pairs — natives for class 1, pids otherwise.
    examined:
        Total candidates drawn (accepted + rejected).
    """

    support: set[int]
    payload: np.ndarray | None
    target: int
    picked: list[tuple[int, int]] = field(default_factory=list)
    examined: int = 0

    @property
    def degree(self) -> int:
        return len(self.support)

    @property
    def hit(self) -> bool:
        """True iff the target degree was reached exactly."""
        return self.degree == self.target

    @property
    def relative_deviation(self) -> float:
        """``(target - degree) / target`` — the paper's 0.2 % statistic."""
        if self.target <= 0:
            return 0.0
        return (self.target - self.degree) / self.target


def build_packet(
    d: int,
    graph: TannerGraph,
    index: DegreeIndex,
    rng: np.random.Generator,
    counter: OpCounter | None = None,
) -> BuildResult:
    """Greedily build a packet of degree <= *d* (Algorithm 1).

    Parameters
    ----------
    d:
        Target degree (>= 1); the caller should have screened it with
        :class:`~repro.core.reachability.ReachabilityOracle`.
    graph:
        The node's Tanner graph — source of supports, payloads and
        decoded natives.
    index:
        Degree index over the same graph (kept in sync by the node).
    rng:
        Randomness for the per-class uniform picks.
    counter:
        Cost accounting (control ops on supports, data ops on payloads).

    Each degree class is drawn from as a swap-pop over its items in
    ascending id order, the order the rng picks index into.  Charges
    accumulate locally and land as one add per op name (the counter is
    a totals-only multiset).
    """
    counter = counter if counter is not None else OpCounter()
    words = (graph.k + 63) >> 6  # code-vector words an implementation XORs
    support: set[int] = set()
    payload: np.ndarray | None = None
    result = BuildResult(support=support, payload=None, target=d)
    packets = graph.packets
    decoded = graph.decoded

    table_ops = 0
    rng_draws = 0
    xor_words = 0
    payload_xors = 0
    i = min(d, index.max_degree())
    pool: list[int] = []
    pool_class = 0
    while len(support) < d and i > 0:
        if pool_class != i:
            pool = sorted(index.items_of_degree(i))
            pool_class = i
            table_ops += 1
        if not pool:
            i -= 1
            continue
        # pickAtRandom(S') with removal: swap-pop a uniform position.
        rng_draws += 1
        j = int(rng.integers(len(pool)))
        pool[j], pool[-1] = pool[-1], pool[j]
        item = pool.pop()
        result.examined += 1
        candidate = {item} if i == 1 else packets[item].support
        table_ops += len(candidate)
        overlap = len(support & candidate)
        new_degree = len(support) + len(candidate) - 2 * overlap
        if len(support) < new_degree <= d:
            support.symmetric_difference_update(candidate)
            xor_words += words
            payload_xors += 1
            # xor_payloads semantics by value: the first term is copied
            # so the packet never aliases a stored payload.
            other = decoded[item] if i == 1 else packets[item].payload
            if other is not None:
                payload = (
                    other.copy() if payload is None
                    else np.bitwise_xor(payload, other)
                )
            result.picked.append((i, item))
    counter.add("table_op", table_ops)
    counter.add("rng_draw", rng_draws)
    counter.add("vec_word_xor", xor_words)
    counter.add("payload_xor", payload_xors)
    result.support = support
    result.payload = payload
    return result
