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

import importlib

#: Public name -> the module it comes from.  The names load on first
#: access (PEP 562), so importing a stdlib-only submodule such as
#: ``repro.analysis`` or ``repro.fileio`` does not load numpy and the
#: simulator.
_EXPORTS = {
    "ReproError": "repro.errors",
    "DimensionError": "repro.errors",
    "DecodingError": "repro.errors",
    "DistributionError": "repro.errors",
    "RecodingError": "repro.errors",
    "SimulationError": "repro.errors",
    "StorageError": "repro.errors",
    "BitVector": "repro.gf2",
    "IncrementalRref": "repro.gf2",
    "EncodedPacket": "repro.coding",
    "make_content": "repro.coding",
    "content_blocks": "repro.coding",
    "RobustSoliton": "repro.lt",
    "IdealSoliton": "repro.lt",
    "LTEncoder": "repro.lt",
    "TannerGraph": "repro.lt",
    "BeliefPropagationDecoder": "repro.lt",
    "LtncNode": "repro.core",
    "RlncNode": "repro.rlnc",
    "WcNode": "repro.wc",
    "EpidemicSimulator": "repro.gossip",
    "Feedback": "repro.gossip",
    "run_dissemination": "repro.gossip",
    "OpCounter": "repro.costmodel",
    "CycleModel": "repro.costmodel",
    "CostBreakdown": "repro.costmodel",
}


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})


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
