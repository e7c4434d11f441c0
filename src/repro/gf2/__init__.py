"""GF(2) linear-algebra substrate: packed bit vectors and matrices."""

from repro.gf2.batch import BATCH_RREF_MIN_COLS, BatchRref, make_rref
from repro.gf2.bitvec import BitVector, WORD_BITS
from repro.gf2.matrix import IncrementalRref

__all__ = [
    "BATCH_RREF_MIN_COLS",
    "BatchRref",
    "BitVector",
    "IncrementalRref",
    "WORD_BITS",
    "make_rref",
]
