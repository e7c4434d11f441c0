"""repro — reproduction of "LT Network Codes" (ICDCS 2010).

LTNC builds network codes from LT codes so that receivers decode with
low-complexity belief propagation instead of Gaussian reduction, while
intermediary nodes *recode* fresh encoded packets that preserve the
statistical structure of LT codes (Robust Soliton degrees for encoded
packets, near-uniform degrees for native packets).

Quick start
-----------

>>> import numpy as np
>>> from repro import RobustSoliton, LTEncoder, BeliefPropagationDecoder
>>> from repro.coding import make_content
>>> k, m = 64, 32
>>> content = make_content(k, m, rng=7)
>>> enc = LTEncoder(k, RobustSoliton(k), payloads=content, rng=7)
>>> dec = BeliefPropagationDecoder(k)
>>> while not dec.is_complete():
...     _ = dec.receive(enc.next_packet())
>>> bool(np.array_equal(dec.recovered_content(), content))
True

Package map
-----------

``repro.gf2``         packed GF(2) vectors and Gaussian reduction
``repro.coding``      encoded-packet abstraction
``repro.lt``          LT codes: Soliton distributions, encoder, Tanner
                      graph, belief propagation
``repro.rlnc``        random linear network coding baseline
``repro.wc``          uncoded epidemic baseline
``repro.core``        the paper's contribution: LTNC recoding
``repro.schemes``     pluggable coding-scheme descriptors + registry
``repro.gossip``      epidemic dissemination simulator
``repro.costmodel``   operation counting and the CPU-cycle model
``repro.experiments`` figure/table harnesses (see benchmarks/)
``repro.scenarios``   declarative scenario specs, presets and the
                      parallel trial runner (``python -m repro.scenarios``)
``repro.topology``    graph-structured overlays: generators, the
                      neighbourhood sampler, hop/weight loss channels
``repro.storage``     self-healing distributed storage application
``repro.baselines``   counterpoint baselines (random recoding)
``repro.generations`` generation-based chunking (§I optimization)
``repro.security``    homomorphic tags against pollution
"""

from repro.coding import EncodedPacket, content_blocks, make_content
from repro.core import LtncNode
from repro.costmodel import CostBreakdown, CycleModel, OpCounter
from repro.errors import (
    DecodingError,
    DimensionError,
    DistributionError,
    RecodingError,
    ReproError,
    SimulationError,
    StorageError,
)
from repro.gf2 import BitVector, IncrementalRref
from repro.gossip import EpidemicSimulator, Feedback, run_dissemination
from repro.lt import (
    BeliefPropagationDecoder,
    IdealSoliton,
    LTEncoder,
    RobustSoliton,
    TannerGraph,
)
from repro.rlnc import RlncNode
from repro.wc import WcNode

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "DimensionError",
    "DecodingError",
    "DistributionError",
    "RecodingError",
    "SimulationError",
    "StorageError",
    # gf2
    "BitVector",
    "IncrementalRref",
    # coding
    "EncodedPacket",
    "make_content",
    "content_blocks",
    # lt
    "RobustSoliton",
    "IdealSoliton",
    "LTEncoder",
    "TannerGraph",
    "BeliefPropagationDecoder",
    # nodes
    "LtncNode",
    "RlncNode",
    "WcNode",
    # dissemination
    "EpidemicSimulator",
    "Feedback",
    "run_dissemination",
    # cost model
    "OpCounter",
    "CycleModel",
    "CostBreakdown",
]
