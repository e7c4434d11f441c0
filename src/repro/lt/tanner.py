"""The Tanner graph: dynamic bipartite structure for belief propagation.

A Tanner graph (paper §II, Fig. 1) is a bipartite graph between native
packets and the encoded packets stored at a node: an edge links native
``x`` to encoded ``y`` when ``x`` participates in ``y``'s combination.
Belief propagation *peels* the graph: each time a native is decoded its
value is XOR-ed out of every encoded packet pointing to it, and any
packet whose degree falls to one decodes a further native.

This module provides the mutable structure with:

* per-native reverse index for O(degree) edge removal,
* listener callbacks so :class:`~repro.core.node.LtncNode` can maintain
  its complementary data structures (paper Table I) incrementally,
* a drop-policy hook implementing §III-C1 (discard packets detected as
  redundant when their degree falls to <= 3 during decoding),
* operation counting for the Figure 8 cost model.
"""

from __future__ import annotations

import numpy as np

from repro.coding.packet import xor_payloads
from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError

__all__ = ["StoredPacket", "TannerListener", "DropPolicy", "TannerGraph"]


class StoredPacket:
    """An encoded packet held in the graph, reduced as natives decode."""

    __slots__ = ("pid", "support", "payload")

    def __init__(
        self, pid: int, support: set[int], payload: np.ndarray | None
    ) -> None:
        self.pid = pid
        self.support = support
        self.payload = payload

    @property
    def degree(self) -> int:
        return len(self.support)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StoredPacket(pid={self.pid}, support={sorted(self.support)})"


class TannerListener:
    """No-op base class for graph observers.

    Subclasses override the callbacks they care about.  Events fire
    *after* the graph mutation they describe, and the ``support`` passed
    is the packet's current (post-mutation) support — observers must not
    mutate it.
    """

    def on_packet_stored(self, pid: int, support: set[int]) -> None:
        """A new packet of degree >= 2 entered the graph."""

    def on_packet_degree_changed(self, pid: int, support: set[int]) -> None:
        """A stored packet lost an edge and remains stored (degree >= 2)."""

    def on_packet_removed(self, pid: int, reason: str) -> None:
        """A stored packet left the graph.

        ``reason`` is one of ``"decoded"`` (its last native propagated),
        ``"emptied"`` (reduced to degree 0 — it was dependent),
        ``"redundant"`` (drop policy fired during decoding).
        """

    def on_native_decoded(self, index: int) -> None:
        """Native packet *index* was recovered."""


class DropPolicy:
    """Decides whether a packet reduced to low degree should be dropped.

    §III-C1: applying redundancy detection to packets whose degree drops
    to <= 3 during decoding avoids useless XORs and memory.  The default
    keeps everything.
    """

    def should_drop(self, support: set[int]) -> bool:
        return False


class TannerGraph:
    """Mutable Tanner graph with reverse index and event stream.

    The graph only stores packets of (current) degree >= 2; degree-1
    packets decode immediately and degree-0 packets are dependent.  All
    stored supports are disjoint from the decoded set — packets are
    reduced against decoded natives before insertion and kept reduced by
    peeling, a class invariant the tests check.
    """

    def __init__(
        self,
        k: int,
        counter: OpCounter | None = None,
    ) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        self.k = k
        self.counter = counter if counter is not None else OpCounter()
        self.packets: dict[int, StoredPacket] = {}
        self.by_native: list[set[int]] = [set() for _ in range(k)]
        self.decoded: dict[int, np.ndarray | None] = {}
        self.listeners: list[TannerListener] = []
        self.drop_policy: DropPolicy | None = None
        self._next_pid = 0

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def add_listener(self, listener: TannerListener) -> None:
        self.listeners.append(listener)

    def _fire_stored(self, pid: int, support: set[int]) -> None:
        for lst in self.listeners:
            lst.on_packet_stored(pid, support)

    def _fire_degree_changed(self, pid: int, support: set[int]) -> None:
        for lst in self.listeners:
            lst.on_packet_degree_changed(pid, support)

    def _fire_removed(self, pid: int, reason: str) -> None:
        for lst in self.listeners:
            lst.on_packet_removed(pid, reason)

    def _fire_decoded(self, index: int) -> None:
        for lst in self.listeners:
            lst.on_native_decoded(index)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def decoded_count(self) -> int:
        return len(self.decoded)

    def is_complete(self) -> bool:
        """True iff all *k* natives have been recovered."""
        return len(self.decoded) == self.k

    def is_decoded(self, index: int) -> bool:
        return index in self.decoded

    def native_payload(self, index: int) -> np.ndarray | None:
        """Payload of a decoded native (KeyError if not decoded)."""
        return self.decoded[index]

    @property
    def stored_count(self) -> int:
        return len(self.packets)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(
        self, support: set[int], payload: np.ndarray | None
    ) -> tuple[int | None, list[int]]:
        """Insert an encoded packet (already reduced by the caller).

        Returns ``(pid, decoded)``: *pid* of the stored packet (``None``
        if the packet decoded immediately, was empty, or was dropped by
        policy) and the list of natives decoded as a consequence.

        The caller (the decoder front-end) is responsible for reducing
        the support/payload against already-decoded natives first.
        """
        for i in support:
            if not 0 <= i < self.k:
                raise DimensionError(f"native index {i} outside 0..{self.k - 1}")
            if i in self.decoded:
                raise DimensionError(
                    f"insert of non-reduced support (native {i} decoded)"
                )
        if not support:
            return None, []
        if len(support) == 1:
            (index,) = support
            return None, self._decode_cascade(index, payload)
        if (
            self.drop_policy is not None
            and len(support) <= 3
            and self.drop_policy.should_drop(support)
        ):
            self.counter.add("table_op")
            return None, []
        pid = self._next_pid
        self._next_pid += 1
        packet = StoredPacket(pid, set(support), payload)
        self.packets[pid] = packet
        for i in support:
            self.by_native[i].add(pid)
        self.counter.add("table_op", len(support))
        self._fire_stored(pid, packet.support)
        return pid, []

    def remove_packet(self, pid: int, reason: str = "dropped") -> None:
        """Remove a stored packet and unindex its edges."""
        packet = self.packets.pop(pid)
        for i in packet.support:
            self.by_native[i].discard(pid)
        self.counter.add("table_op", len(packet.support))
        self._fire_removed(pid, reason)

    # ------------------------------------------------------------------
    # Peeling
    # ------------------------------------------------------------------
    def _decode_cascade(
        self, index: int, payload: np.ndarray | None
    ) -> list[int]:
        """Record native *index* and run belief propagation to fixpoint.

        Each decoded native peels its packets in ascending pid order.
        """
        newly: list[int] = []
        worklist: list[tuple[int, np.ndarray | None]] = [(index, payload)]
        while worklist:
            idx, value = worklist.pop()
            if idx in self.decoded:
                continue
            self.decoded[idx] = value
            newly.append(idx)
            self._fire_decoded(idx)
            for pid in sorted(self.by_native[idx]):
                follow = self._peel_edge(pid, idx, value)
                if follow is not None:
                    worklist.append(follow)
        return newly

    def _peel_edge(
        self, pid: int, idx: int, value: np.ndarray | None
    ) -> tuple[int, np.ndarray | None] | None:
        """Remove edge (idx -> pid), XOR-ing the decoded value out.

        Returns a follow-up ``(native, payload)`` when the packet's
        degree fell to one, i.e. another native became decodable.
        """
        packet = self.packets[pid]
        packet.support.discard(idx)
        self.by_native[idx].discard(pid)
        self.counter.add("bp_edge")
        self.counter.add("table_op", 2)
        packet.payload = xor_payloads(packet.payload, value, self.counter)
        degree = len(packet.support)
        if degree == 1:
            (nxt,) = packet.support
            self.by_native[nxt].discard(pid)
            del self.packets[pid]
            self.counter.add("table_op", 2)
            self._fire_removed(pid, "decoded")
            return nxt, packet.payload
        if degree == 0:  # duplicate/dependent packet fully cancelled
            del self.packets[pid]
            self._fire_removed(pid, "emptied")
            return None
        if (
            self.drop_policy is not None
            and degree <= 3
            and self.drop_policy.should_drop(packet.support)
        ):
            self.counter.add("table_op")
            self.remove_packet(pid, "redundant")
            return None
        self._fire_degree_changed(pid, packet.support)
        return None

    # ------------------------------------------------------------------
    # Introspection for tests
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Raise AssertionError if internal consistency is broken."""
        for pid, packet in self.packets.items():
            assert packet.degree >= 2, f"stored packet {pid} below degree 2"
            for i in packet.support:
                assert i not in self.decoded, (
                    f"packet {pid} references decoded native {i}"
                )
                assert pid in self.by_native[i], (
                    f"missing reverse edge {i}->{pid}"
                )
        for i, pids in enumerate(self.by_native):
            for pid in pids:
                assert pid in self.packets, f"dangling reverse edge {i}->{pid}"
                assert i in self.packets[pid].support, (
                    f"reverse edge {i}->{pid} not in support"
                )

    def __repr__(self) -> str:
        return (
            f"TannerGraph(k={self.k}, stored={len(self.packets)}, "
            f"decoded={len(self.decoded)})"
        )
