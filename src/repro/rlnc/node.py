"""Random Linear Network Coding baseline (paper §IV-A).

The RLNC reference scheme the paper evaluates against:

* nodes recode by XOR-ing a random subset of previously received
  encoded packets, the subset size bounded by the *sparsity*
  ``ln k + 20`` ("widely acknowledged as the optimal setting for linear
  network coding" — §IV-A);
* non-innovative packets are detected exactly with a partial Gaussian
  reduction of the code vector, so with a feedback channel every
  redundant transfer is aborted and RLNC's communication overhead is
  zero (§IV-B, Overhead);
* decoding is the full Gaussian reduction, spread incrementally over
  receptions — the `O(m k^2)` cost that motivates LTNC.
"""

from __future__ import annotations

import math

import numpy as np

from repro.coding.packet import EncodedPacket
from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError, RecodingError
from repro.gf2.batch import make_rref
from repro.gf2.bitvec import BitVector
from repro.rng import make_rng

__all__ = ["default_sparsity", "RlncNode"]


def default_sparsity(k: int) -> int:
    """The paper's recoding bound: ``ln k + 20`` packets per combination."""
    return int(math.ceil(math.log(max(k, 2)) + 20))


class RlncNode:
    """A dissemination participant running sparse RLNC over GF(2).

    Implements the scheme-node protocol expected by
    :class:`repro.gossip.simulator.EpidemicSimulator`:
    ``can_send`` / ``make_packet`` / ``header_is_innovative`` /
    ``receive`` / ``is_complete``.

    Parameters
    ----------
    node_id:
        Identifier used by the simulator.
    k:
        Code length.
    payload_nbytes:
        Payload size *m*, or ``None`` for symbolic mode.
    sparsity:
        Maximum packets combined per recode; defaults to ``ln k + 20``.
    rng:
        Seed or generator for recoding draws.
    """

    scheme = "rlnc"

    def __init__(
        self,
        node_id: int,
        k: int,
        payload_nbytes: int | None = None,
        sparsity: int | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if k <= 0:
            raise DimensionError(f"k must be positive, got {k}")
        self.node_id = node_id
        self.k = k
        self.payload_nbytes = payload_nbytes
        self.sparsity = sparsity if sparsity is not None else default_sparsity(k)
        if self.sparsity < 1:
            raise DimensionError(f"sparsity must be >= 1, got {self.sparsity}")
        self.rng = make_rng(rng)
        self.recode_counter = OpCounter()
        self.decode_counter = OpCounter()
        # Kernel picked per code length (make_rref): the int kernel for
        # the paper's default sizes, the numpy multi-row kernel at
        # paper-scale k — result- and charge-identical either way.
        self.rref = make_rref(
            k, payload_nbytes=payload_nbytes, counter=self.decode_counter
        )
        self.received: list[EncodedPacket] = []
        self.innovative_count = 0
        self.redundant_count = 0
        self.recoded_count = 0

    # ------------------------------------------------------------------
    @classmethod
    def as_source(
        cls,
        k: int,
        content: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
        node_id: int = -1,
        **kwargs: object,
    ) -> "RlncNode":
        """A node pre-loaded with all *k* natives (the content source).

        Builds what receiving the *k* natives in order builds (identity
        basis, received packets, counters and charges) without reducing
        each one.  *kwargs* go to the constructor: ``sparsity``, or a
        subclass's own knob.
        """
        m = int(content.shape[1]) if content is not None else None
        node = cls(node_id, k, payload_nbytes=m, rng=rng, **kwargs)
        node.rref.load_identity(content)
        node.received = [
            EncodedPacket.native(
                k, i, content[i].copy() if content is not None else None
            )
            for i in range(k)
        ]
        node.innovative_count = k
        return node

    # ------------------------------------------------------------------
    # Scheme-node protocol
    # ------------------------------------------------------------------
    def is_complete(self) -> bool:
        """True iff the code matrix reached full rank."""
        return self.rref.is_full_rank()

    def can_send(self) -> bool:
        """RLNC recodes without delay: one packet suffices (§IV-A)."""
        return bool(self.received)

    def header_is_innovative(self, vector) -> bool:
        """Exact innovation check by partial Gaussian reduction.

        This is the receiver-side feedback test; its cost lands on the
        decode counter because the reduction work is shared with (and
        indistinguishable from) decoding in RLNC.
        """
        return self.rref.is_innovative(vector)

    def receive(self, packet: EncodedPacket) -> bool:
        """Insert a packet; returns True iff it was innovative."""
        innovative = self.rref.insert(packet.vector, packet.payload)
        if innovative:
            self.received.append(packet.copy())
            self.innovative_count += 1
        else:
            self.redundant_count += 1
        return innovative

    def make_packet(self, receiver_state: object | None = None) -> EncodedPacket:
        """Recode: random GF(2) combination of received packets.

        At most ``sparsity`` candidate packets are selected uniformly,
        then each enters the combination with an independent fair-coin
        coefficient — GF(2) random linear coding restricted to a sparse
        candidate set (the paper bounds the number of packets *involved*
        by the sparsity; the coefficients themselves stay uniform).  A
        rare all-zero draw is retried.  ``receiver_state`` is ignored —
        plain RLNC uses no receiver feedback when recoding.
        """
        if not self.received:
            raise RecodingError("no packets received yet; cannot recode")
        t = min(self.sparsity, len(self.received))
        received = self.received
        counter = self.recode_counter
        rng = self.rng
        nwords = (self.k + 63) >> 6
        for _ in range(16):
            counter.add("rng_draw", 2)
            picks = rng.choice(len(received), size=t, replace=False)
            coeffs = rng.random(t) < 0.5
            kept = [received[j] for j in picks[coeffs].tolist()]
            if not kept:
                continue
            # Charged as packet-by-packet combining: one copy streaming
            # m payload bytes, then one vector and one payload XOR per
            # further packet.
            counter.add("payload_xor", len(kept))
            counter.add("vec_word_xor", (len(kept) - 1) * nwords)
            x = 0
            for packet in kept:
                x ^= packet.vector._x
            if x:
                payloads = [p.payload for p in kept if p.payload is not None]
                self.recoded_count += 1
                return EncodedPacket(
                    BitVector._from_int(self.k, x),
                    np.bitwise_xor.reduce(payloads) if payloads else None,
                )
        # Fall back to forwarding a single packet: always non-zero.
        self.recoded_count += 1
        self.recode_counter.add("payload_xor")
        return self.received[int(self.rng.integers(len(self.received)))].copy()

    def feedback_state(self) -> object | None:
        """RLNC's full-feedback state is its whole basis; not modelled."""
        return None

    # ------------------------------------------------------------------
    def decoded_content(self) -> np.ndarray:
        """The (k, m) native matrix after full-rank decoding."""
        return np.stack(self.rref.decode())

    @property
    def rank(self) -> int:
        return self.rref.rank

    def __repr__(self) -> str:
        return (
            f"RlncNode(id={self.node_id}, k={self.k}, rank={self.rank}, "
            f"sparsity={self.sparsity})"
        )
