"""Belief-propagation decoder front-end.

Wraps :class:`~repro.lt.tanner.TannerGraph` with the reception pipeline
of §II: reduce the incoming packet against already-decoded natives,
then insert it — decoding immediately when the residual degree is one
and cascading through the ripple.  Requires ``O(m k log k)`` operations
to recover all natives when packet degrees follow the Robust Soliton.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.coding.packet import EncodedPacket, xor_payloads
from repro.costmodel.counters import OpCounter
from repro.errors import DecodingError
from repro.lt.tanner import DropPolicy, TannerGraph, TannerListener

__all__ = ["ReceiveOutcome", "BeliefPropagationDecoder"]


@dataclass
class ReceiveOutcome:
    """What happened when a packet was received.

    Attributes
    ----------
    stored_pid:
        Graph pid if the packet was stored (residual degree >= 2).
    decoded:
        Natives decoded as a consequence of this reception (cascade
        included), in decode order.
    redundant:
        True when the packet added no information: it reduced to degree
        zero, or the drop policy discarded it at degree <= 3.
    """

    stored_pid: int | None = None
    decoded: list[int] = field(default_factory=list)
    redundant: bool = False

    @property
    def useful(self) -> bool:
        """True iff the packet changed decoder state."""
        return not self.redundant


class BeliefPropagationDecoder:
    """Online LT decoder using the peeling process.

    Parameters
    ----------
    k:
        Code length.
    counter:
        Cost-accounting destination shared with the Tanner graph.
    drop_policy:
        Optional §III-C1 redundancy filter applied to packets whose
        (residual) degree is <= 3 at reception or during decoding.
    """

    def __init__(
        self,
        k: int,
        counter: OpCounter | None = None,
        drop_policy: DropPolicy | None = None,
    ) -> None:
        self.counter = counter if counter is not None else OpCounter()
        self.graph = TannerGraph(k, counter=self.counter)
        self.graph.drop_policy = drop_policy
        self.received = 0
        self.redundant_received = 0

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        return self.graph.k

    @property
    def decoded_count(self) -> int:
        return self.graph.decoded_count

    def is_complete(self) -> bool:
        """True iff all natives are recovered."""
        return self.graph.is_complete()

    def is_decoded(self, index: int) -> bool:
        return self.graph.is_decoded(index)

    def add_listener(self, listener: TannerListener) -> None:
        self.graph.add_listener(listener)

    def set_drop_policy(self, policy: DropPolicy | None) -> None:
        self.graph.drop_policy = policy

    # ------------------------------------------------------------------
    def receive(self, packet: EncodedPacket) -> ReceiveOutcome:
        """Process one encoded packet through the peeling pipeline."""
        if packet.k != self.k:
            raise DecodingError(
                f"packet for k={packet.k} fed to decoder with k={self.k}"
            )
        self.received += 1
        support = packet.support()
        payload = (
            packet.payload.copy() if packet.payload is not None else None
        )
        # Reduce against decoded natives (each removal is one edge that
        # never enters the graph, but still an XOR on the data plane).
        graph = self.graph
        is_decoded = graph.is_decoded
        counter = self.counter
        for idx in [i for i in support if is_decoded(i)]:
            support.discard(idx)
            payload = xor_payloads(
                payload, graph.native_payload(idx), counter
            )
            counter.add("table_op")
        if not support:
            self.redundant_received += 1
            return ReceiveOutcome(redundant=True)
        pid, decoded = self.graph.insert(support, payload)
        if pid is None and not decoded:
            # Drop policy discarded it: no state change.
            self.redundant_received += 1
            return ReceiveOutcome(redundant=True)
        return ReceiveOutcome(stored_pid=pid, decoded=decoded)

    # ------------------------------------------------------------------
    def native_payload(self, index: int) -> np.ndarray | None:
        """Payload of native *index* (DecodingError if not decoded)."""
        if not self.graph.is_decoded(index):
            raise DecodingError(f"native {index} not decoded yet")
        return self.graph.native_payload(index)

    def recovered_content(self) -> np.ndarray:
        """The full (k, m) native payload matrix; requires completion."""
        if not self.is_complete():
            raise DecodingError(
                f"decoded {self.decoded_count}/{self.k}: content incomplete"
            )
        payloads = [self.graph.native_payload(i) for i in range(self.k)]
        if any(p is None for p in payloads):
            raise DecodingError("symbolic mode: no payload bytes to return")
        return np.stack(payloads)  # type: ignore[arg-type]

    def __repr__(self) -> str:
        return (
            f"BeliefPropagationDecoder(k={self.k}, "
            f"decoded={self.decoded_count}, stored={self.graph.stored_count})"
        )
