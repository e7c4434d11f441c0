"""Packed bit vectors over GF(2).

Code vectors in LTNC are bitmaps of length *k* shipped in packet
headers (§IV-A of the paper).  :class:`BitVector` stores them packed
into a single Python arbitrary-precision integer: at the code lengths
the benches sweep (k <= a few thousand) CPython's int XOR,
``bit_count()`` and ``(x & -x).bit_length()`` beat numpy's per-call
dispatch on 1-4 word buffers by an order of magnitude, which is where
the Gauss-reduction and recoding hot loops spend their time (the
original numpy-words kernel survives as a differential-testing oracle
in ``tests/gf2_oracles.py``).

The bit layout is unchanged: bit *i* of the vector is bit ``i & 63`` of
64-bit word ``i >> 6`` (little-endian within the word), and
:meth:`key` serializes those words little-endian — byte-identical to
the numpy era, so hashes, dict keys and any persisted fingerprints are
stable across the kernel swap.  The words array survives as the
:attr:`words` conversion property.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.errors import DimensionError

__all__ = ["BitVector", "WORD_BITS"]

WORD_BITS = 64
_WORD_SHIFT = 6
_WORD_MASK = 63


def _nwords(nbits: int) -> int:
    return (nbits + _WORD_MASK) >> _WORD_SHIFT


def _pack_bits(bits: np.ndarray) -> int:
    """Pack a 1-D 0/1 array into the canonical int layout (bit i <- bits[i]).

    The single source of truth for the packing idiom; the batched 2-D
    variant in the test oracle ``GF2Matrix.from_dense``
    (``tests/gf2_oracles.py``) packs with ``axis=1`` and must keep the
    same ``bitorder="little"`` + little-endian bytes.
    """
    packed = np.packbits(bits.astype(bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _norm_index(i: int, nbits: int) -> int:
    """Wrap a possibly-negative bit index and bounds-check it."""
    if i < 0:
        i += nbits
    if not 0 <= i < nbits:
        raise IndexError(f"bit index {i} out of range for length {nbits}")
    return i


class BitVector:
    """A fixed-length vector over GF(2), packed into one Python int.

    Instances are mutable; use :meth:`copy` before in-place updates when
    sharing.  Bits beyond ``nbits`` are never set (``0 <= _x < 2**nbits``
    as a class invariant), so :meth:`weight` and equality never need
    masking.
    """

    __slots__ = ("nbits", "_x")

    def __init__(self, nbits: int, words: np.ndarray | None = None) -> None:
        if nbits < 0:
            raise DimensionError(f"negative vector length: {nbits}")
        self.nbits = nbits
        if words is None:
            self._x = 0
        else:
            words = np.ascontiguousarray(words, dtype=np.uint64)
            if words.shape != (_nwords(nbits),):
                raise DimensionError(
                    f"expected {_nwords(nbits)} words for {nbits} bits, "
                    f"got shape {words.shape}"
                )
            x = int.from_bytes(words.tobytes(), "little")
            if nbits:
                x &= (1 << nbits) - 1
            self._x = x

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def _from_int(cls, nbits: int, x: int) -> "BitVector":
        """Wrap *x* (already tail-masked) without validation — internal."""
        vec = object.__new__(cls)
        vec.nbits = nbits
        vec._x = x
        return vec

    @classmethod
    def zeros(cls, nbits: int) -> "BitVector":
        """The all-zero vector of length *nbits*."""
        return cls(nbits)

    @classmethod
    def from_indices(cls, nbits: int, indices: Iterable[int]) -> "BitVector":
        """Vector with ones exactly at *indices*."""
        x = 0
        for i in indices:
            x |= 1 << _norm_index(i, nbits)
        vec = cls(nbits)
        vec._x = x
        return vec

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        """Vector from an iterable of 0/1 values (index order)."""
        arr = np.asarray(bits if isinstance(bits, np.ndarray) else list(bits))
        if arr.ndim != 1:
            raise DimensionError(
                f"from_bits expects a flat sequence, got shape {arr.shape}"
            )
        vec = cls(arr.size)
        if arr.size:
            vec._x = _pack_bits(arr)
        return vec

    @classmethod
    def random(
        cls, nbits: int, rng: np.random.Generator, density: float = 0.5
    ) -> "BitVector":
        """Vector whose bits are i.i.d. Bernoulli(*density*)."""
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {density}")
        bits = rng.random(nbits) < density
        vec = cls(nbits)
        if nbits:
            vec._x = _pack_bits(bits)
        return vec

    # ------------------------------------------------------------------
    # Element access
    # ------------------------------------------------------------------
    def _check_index(self, i: int) -> int:
        return _norm_index(i, self.nbits)

    def get(self, i: int) -> bool:
        """Value of bit *i*."""
        i = self._check_index(i)
        return bool((self._x >> i) & 1)

    def set(self, i: int, value: bool = True) -> None:
        """Set bit *i* to *value*."""
        i = self._check_index(i)
        if value:
            self._x |= 1 << i
        else:
            self._x &= ~(1 << i)

    def flip(self, i: int) -> None:
        """Toggle bit *i*."""
        i = self._check_index(i)
        self._x ^= 1 << i

    __getitem__ = get

    def __setitem__(self, i: int, value: int) -> None:
        self.set(i, bool(value))

    # ------------------------------------------------------------------
    # GF(2) arithmetic
    # ------------------------------------------------------------------
    def _check_same_length(self, other: "BitVector") -> None:
        if self.nbits != other.nbits:
            raise DimensionError(
                f"length mismatch: {self.nbits} vs {other.nbits}"
            )

    def ixor(self, other: "BitVector") -> "BitVector":
        """In-place XOR (addition over GF(2)); returns ``self``."""
        if self.nbits != other.nbits:
            raise DimensionError(
                f"length mismatch: {self.nbits} vs {other.nbits}"
            )
        self._x ^= other._x
        return self

    def __xor__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector._from_int(self.nbits, self._x ^ other._x)

    def __ixor__(self, other: "BitVector") -> "BitVector":
        return self.ixor(other)

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector._from_int(self.nbits, self._x & other._x)

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_same_length(other)
        return BitVector._from_int(self.nbits, self._x | other._x)

    def overlap(self, other: "BitVector") -> int:
        """Number of positions where both vectors have a one."""
        self._check_same_length(other)
        return (self._x & other._x).bit_count()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def weight(self) -> int:
        """Hamming weight (the packet *degree* when used as code vector)."""
        return self._x.bit_count()

    def is_zero(self) -> bool:
        """True iff every bit is zero."""
        return self._x == 0

    def indices_list(self) -> list[int]:
        """Positions holding a one, ascending, as plain Python ints."""
        x = self._x
        out = []
        append = out.append
        while x:
            lsb = x & -x
            append(lsb.bit_length() - 1)
            x ^= lsb
        return out

    def indices(self) -> np.ndarray:
        """Sorted array of positions holding a one."""
        return np.array(self.indices_list(), dtype=np.int64)

    def first_index(self) -> int:
        """Position of the lowest set bit; -1 if the vector is zero."""
        return (self._x & -self._x).bit_length() - 1

    def key(self) -> bytes:
        """Hashable canonical form (for dict/set membership).

        Byte layout is the little-endian 64-bit word array — identical
        to the numpy-backed kernel's ``words.tobytes()``.
        """
        return self._x.to_bytes(_nwords(self.nbits) * 8, "little")

    def nwords(self) -> int:
        """Number of 64-bit words backing the vector."""
        return _nwords(self.nbits)

    @property
    def words(self) -> np.ndarray:
        """The vector as a little-endian ``uint64`` word array (a copy)."""
        return np.frombuffer(self.key(), dtype=np.uint64).copy()

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def copy(self) -> "BitVector":
        """Independent copy of this vector."""
        return BitVector._from_int(self.nbits, self._x)

    def __len__(self) -> int:
        return self.nbits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitVector):
            return NotImplemented
        return self.nbits == other.nbits and self._x == other._x

    def __hash__(self) -> int:
        return hash((self.nbits, self.key()))

    def __getstate__(self) -> tuple[int, int]:
        return (self.nbits, self._x)

    def __setstate__(self, state: tuple[int, int]) -> None:
        self.nbits, self._x = state

    def __iter__(self) -> Iterator[bool]:
        x = self._x
        for _ in range(self.nbits):
            yield bool(x & 1)
            x >>= 1

    def __repr__(self) -> str:
        if self.nbits <= 64:
            bits = "".join("1" if b else "0" for b in self)
            return f"BitVector({self.nbits}, 0b{bits or '0'})"
        return f"BitVector({self.nbits}, weight={self.weight()})"
