"""Algorithm 2 — refining a fresh encoded packet (§III-B3).

Refinement lowers the variance of native-packet degrees across the
packets a node sends.  For each native ``x`` in the freshly built
packet ``z``, it looks for a replacement ``x'`` such that:

1. ``x ~ x'`` — the degree-2 packet ``x ^ x'`` is generable from
   decoded natives and stored degree-2 packets (same connected
   component);
2. ``x'`` appeared in strictly fewer previously sent packets;
3. ``x'`` is not already in the packet (the substitution must not
   change the degree).

Among the eligible candidates the *least frequent* one is substituted:
``z ^= (x ^ x')`` flips exactly the bits of ``x`` and ``x'``.  The
payload of ``x ^ x'`` is materialized by XOR-ing the stored degree-2
packets along a component path (or the two decoded values when both
natives are decoded).

Candidate search walks the occurrence buckets from the global minimum
upward, each in ascending native index, so the first native satisfying
(1) and (3) in the lowest non-empty bucket below ``frequency(x)`` *is*
the argmin, ties going to the lowest index.  The walk is unbounded,
as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coding.packet import xor_payloads
from repro.core.components import DECODED_LEADER, ConnectedComponents
from repro.core.occurrences import OccurrenceTracker
from repro.costmodel.counters import OpCounter
from repro.lt.tanner import TannerGraph

__all__ = ["RefineResult", "refine_packet", "pair_payload"]


@dataclass
class RefineResult:
    """Outcome of one Algorithm-2 run over a built packet."""

    support: set[int]
    payload: np.ndarray | None
    substitutions: list[tuple[int, int]] = field(default_factory=list)
    candidates_examined: int = 0

    @property
    def degree(self) -> int:
        return len(self.support)


def _find_replacement(
    x: int,
    support: set[int],
    components: ConnectedComponents,
    occurrences: OccurrenceTracker,
) -> tuple[int | None, int, int, int]:
    """Least-frequent native ``x' ~ x`` with ``freq < freq(x)``, not in z.

    Walks the occurrence buckets from the minimum upward, so the first
    candidate satisfying the component and "not in z" conditions is the
    argmin.  Returns ``(replacement, examined, occ_table_ops,
    leader_lookups)`` — ``replacement`` is ``None`` when no native
    qualifies — and leaves the charging to the caller, which lands one
    add per counter for the whole Algorithm-2 loop.  The charges are those of a walk that probes
    ``frequency(x)``, reads ``leader(x)`` and consumes the buckets
    below it, count by count and candidate by candidate in ascending
    index (the walk ``tests/oracles.py`` keeps as the reference):

    * ``occ_table_ops`` — the frequency probe plus one per count
      visited, empty counts included, up to the count the walk stopped
      in;
    * ``leader_lookups`` — one, unless ``x`` is already least frequent;
    * ``examined`` — one ``cc_lookup`` per candidate looked at.

    Component membership is read from the leader's member set
    (``cc[c] == leader`` iff ``c in members[leader]``, an invariant
    ``check_invariants`` pins), and a bucket sharing no member with the
    component is skipped whole, charged as if walked.
    """
    freq_x = occurrences._counts[x]
    min_count = occurrences.min_frequency()
    if freq_x <= min_count:
        return None, 0, 1, 0  # nothing can be strictly less frequent
    leader = int(components.cc[x])
    if leader == DECODED_LEADER:
        members: set[int] = components._decoded
    else:
        members = components._members[leader]
    buckets = occurrences._buckets
    examined = 0
    for count in occurrences.nonempty_counts():
        if count >= freq_x:
            break
        bucket = buckets[count]
        if members.isdisjoint(bucket):
            # No candidate here can satisfy the component condition.
            examined += len(bucket)
            continue
        for candidate in sorted(bucket):
            examined += 1
            if candidate in members and candidate not in support:
                return candidate, examined, count - min_count + 2, 1
    return None, examined, freq_x - min_count + 1, 1


def pair_payload(
    x: int,
    y: int,
    components: ConnectedComponents,
    graph: TannerGraph,
    counter: OpCounter,
) -> np.ndarray | None:
    """Payload of ``x ^ y`` for two equivalent natives (``x ~ y``).

    Decoded pairs combine their decoded values; undecoded pairs XOR the
    stored degree-2 packets along a component path (telescoping to
    ``x ^ y``).  Every XOR is a data-plane operation and is counted.
    Also used by the Algorithm-4 smart construction to materialize its
    degree-2 packets.
    """
    if int(components.cc[x]) == DECODED_LEADER:
        return xor_payloads(graph.decoded[x], graph.decoded[y], counter)
    combined: np.ndarray | None = None
    for pid in components.path_pids(x, y):
        combined = xor_payloads(combined, graph.packets[pid].payload, counter)
    return combined


def refine_packet(
    support: set[int],
    payload: np.ndarray | None,
    components: ConnectedComponents,
    occurrences: OccurrenceTracker,
    graph: TannerGraph,
    counter: OpCounter | None = None,
) -> RefineResult:
    """Apply Algorithm 2 to a freshly built packet.

    The input ``support``/``payload`` are consumed (mutated in place for
    the support; the payload array is XOR-ed into a fresh copy only when
    a substitution happens).  The degree never changes — a class of
    invariants the property tests pin down.

    Charges land on the counters that own the structures: the tracker's
    counter for bucket/frequency ``table_op``, the components' counter
    for the leader lookups (the decode counter on an LTNC node) and
    *counter* for the per-candidate ``cc_lookup`` and the substitution
    XORs.
    """
    counter = counter if counter is not None else OpCounter()
    result = RefineResult(support=support, payload=payload)
    occ_ops = 0
    leader_lookups = 0
    # Iterate the *original* members in index order (the paper's worked
    # example processes natives by increasing index); substituted-in
    # natives are not re-examined, but they do block later substitutions
    # through the "not in z'" condition, exactly as in Algorithm 2.
    for x in sorted(support):
        if x not in support:
            continue  # already substituted away by an earlier step
        before = len(support)
        replacement, examined, table_ops, lookups = _find_replacement(
            x, support, components, occurrences
        )
        result.candidates_examined += examined
        occ_ops += table_ops
        leader_lookups += lookups
        if replacement is None:
            continue
        pair = pair_payload(x, replacement, components, graph, counter)
        support.discard(x)
        support.add(replacement)
        counter.add("vec_word_xor", (components.k + 63) >> 6)
        result.payload = xor_payloads(result.payload, pair, counter)
        result.substitutions.append((x, replacement))
        assert len(support) == before, "substitution changed the degree"
    occurrences.counter.add("table_op", occ_ops)
    components.counter.add("cc_lookup", leader_lookups)
    counter.add("cc_lookup", result.candidates_examined)
    return result
