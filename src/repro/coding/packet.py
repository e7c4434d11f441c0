"""Encoded-packet abstraction shared by every scheme.

A packet is a linear combination over GF(2) of native packets: a *code
vector* (bitmap of length *k*, shipped in the packet header per §IV-A)
plus, optionally, the combined *payload* bytes.  The payload is
optional so the dissemination simulator can run in symbolic mode —
structure evolves identically, data-plane XORs are counted but not
executed (see DESIGN.md §3).
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.costmodel.counters import OpCounter
from repro.errors import DimensionError
from repro.gf2.bitvec import BitVector

__all__ = ["EncodedPacket", "xor_payloads", "make_content", "content_blocks"]


def xor_payloads(
    a: np.ndarray | None,
    b: np.ndarray | None,
    counter: OpCounter | None = None,
) -> np.ndarray | None:
    """XOR two optional payloads, counting one data-plane operation.

    The XOR is *counted* even when payloads are absent (symbolic mode),
    so cost accounting is identical whether or not bytes move.
    """
    if counter is not None:
        counter.add("payload_xor")
    if a is None:
        return b.copy() if b is not None else None
    if b is None:
        return a.copy()
    if a.shape != b.shape:
        raise DimensionError(f"payload shape mismatch: {a.shape} vs {b.shape}")
    return np.bitwise_xor(a, b)


class EncodedPacket:
    """A GF(2) linear combination of native packets.

    Attributes
    ----------
    vector:
        Code vector of length *k*; bit *i* set iff native packet *i*
        participates in the combination.
    payload:
        Combined payload bytes, or ``None`` in symbolic mode.
    """

    __slots__ = ("vector", "payload")

    def __init__(
        self, vector: BitVector, payload: np.ndarray | None = None
    ) -> None:
        self.vector = vector
        self.payload = payload

    # ------------------------------------------------------------------
    @classmethod
    def native(
        cls, k: int, index: int, payload: np.ndarray | None = None
    ) -> "EncodedPacket":
        """Degree-1 packet carrying native packet *index*."""
        return cls(BitVector.from_indices(k, [index]), payload)

    @classmethod
    def combine(
        cls,
        k: int,
        indices: Iterable[int],
        payloads: np.ndarray | None = None,
        counter: OpCounter | None = None,
    ) -> "EncodedPacket":
        """Packet combining the natives at *indices*.

        *payloads* is the full (k, m) native payload matrix or ``None``.
        """
        idx = list(indices)
        vector = BitVector.from_indices(k, idx)
        payload: np.ndarray | None = None
        if payloads is not None and idx:
            payload = payloads[idx[0]].copy()
            for i in idx[1:]:
                payload = xor_payloads(payload, payloads[i], counter)
        elif counter is not None and len(idx) > 1:
            counter.add("payload_xor", len(idx) - 1)
        return cls(vector, payload)

    # ------------------------------------------------------------------
    @property
    def k(self) -> int:
        """Code length (number of native packets)."""
        return self.vector.nbits

    @property
    def degree(self) -> int:
        """Number of natives in the combination."""
        return self.vector.weight()

    def indices(self) -> np.ndarray:
        """Sorted native indices participating in the combination."""
        return self.vector.indices()

    def support(self) -> set[int]:
        """Participating native indices as a set (plain Python ints)."""
        return set(self.vector.indices_list())

    def header_nbytes(self) -> int:
        """Size of the code-vector header in bytes (bitmap, §IV-A)."""
        return (self.k + 7) // 8

    # ------------------------------------------------------------------
    def copy(self) -> "EncodedPacket":
        """Deep copy (vector and payload)."""
        return EncodedPacket(
            self.vector.copy(),
            self.payload.copy() if self.payload is not None else None,
        )

    def ixor(
        self, other: "EncodedPacket", counter: OpCounter | None = None
    ) -> "EncodedPacket":
        """In-place XOR with *other*; returns ``self``.

        Counts one control-plane vector XOR (word count) and one
        data-plane payload XOR.
        """
        if counter is not None:
            counter.add("vec_word_xor", self.vector.nwords())
        self.vector.ixor(other.vector)
        self.payload = xor_payloads(self.payload, other.payload, counter)
        return self

    def __xor__(self, other: "EncodedPacket") -> "EncodedPacket":
        return self.copy().ixor(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EncodedPacket):
            return NotImplemented
        if self.vector != other.vector:
            return False
        if self.payload is None or other.payload is None:
            return self.payload is other.payload
        return bool(np.array_equal(self.payload, other.payload))

    def __repr__(self) -> str:
        return (
            f"EncodedPacket(k={self.k}, degree={self.degree}, "
            f"payload={'yes' if self.payload is not None else 'symbolic'})"
        )


def make_content(
    k: int, m: int, rng: np.random.Generator | int | None = None
) -> np.ndarray:
    """Random content split into *k* native packets of *m* bytes.

    Models the paper's workload (a file divided into *k* blocks); the
    returned matrix row *i* is native packet ``x_i``.
    """
    from repro.rng import make_rng

    if k <= 0 or m <= 0:
        raise DimensionError(f"k and m must be positive, got k={k}, m={m}")
    return make_rng(rng).integers(0, 256, size=(k, m), dtype=np.uint8)


def content_blocks(data: bytes, k: int) -> np.ndarray:
    """Split raw *data* into *k* zero-padded blocks (row per native)."""
    if k <= 0:
        raise DimensionError(f"k must be positive, got {k}")
    m = (len(data) + k - 1) // k if data else 1
    buf = np.zeros((k, m), dtype=np.uint8)
    flat = np.frombuffer(data, dtype=np.uint8)
    buf.reshape(-1)[: flat.size] = flat
    return buf
