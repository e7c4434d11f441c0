"""Density-limited RLNC: the sparsity knob promoted to a scheme.

The paper's RLNC baseline bounds each recoded combination at
``ln k + 20`` packets — "widely acknowledged as the optimal setting"
(§IV-A) — which keeps coding vectors dense enough that innovation is
near-certain but makes every recode touch ~25 payloads.  A long line
of follow-up work (sparse RLNC, tunable-sparsity codes) trades a
little innovation probability for much cheaper recoding by capping
the combination at a *fraction* of the code length instead.

:class:`SparseRlncNode` is exactly :class:`~repro.rlnc.node.RlncNode`
with the cap re-expressed as a ``density`` in ``(0, 1]``:
``sparsity = max(1, ceil(density * k))``.  At the paper's k = 2,048
the default 10 % density still combines ~205 packets; at bench sizes
(k = 32..256) it recodes 3-26 payloads against plain RLNC's 24-26 —
the regime where the density cap actually bites.  Everything else
(exact innovation checks, zero overhead under feedback, Gaussian
decoding) is inherited unchanged, which is the point: registering the
descriptor in :mod:`repro.schemes.builtin` is all it took to make
``sparse_rlnc`` a first-class scheme across simulators, specs,
presets and sweeps.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DimensionError
from repro.rlnc.node import RlncNode

__all__ = ["DEFAULT_DENSITY", "sparsity_for_density", "SparseRlncNode"]

#: Default coding-vector density: each recode combines <= 10 % of k.
DEFAULT_DENSITY = 0.1


def sparsity_for_density(k: int, density: float) -> int:
    """The per-recode packet cap for a density fraction of *k*."""
    if not 0.0 < density <= 1.0:
        raise DimensionError(f"density must be in (0, 1], got {density}")
    return max(1, int(math.ceil(density * k)))


class SparseRlncNode(RlncNode):
    """An RLNC participant whose combinations are density-limited.

    Parameters are those of :class:`~repro.rlnc.node.RlncNode` except
    that the absolute ``sparsity`` cap is replaced by ``density``, the
    fraction of the code length each recoded packet may combine.
    """

    scheme = "sparse_rlnc"

    def __init__(
        self,
        node_id: int,
        k: int,
        payload_nbytes: int | None = None,
        density: float = DEFAULT_DENSITY,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        sparsity = sparsity_for_density(k, density)
        super().__init__(
            node_id, k, payload_nbytes=payload_nbytes, sparsity=sparsity, rng=rng
        )
        self.density = density

    def __repr__(self) -> str:
        return (
            f"SparseRlncNode(id={self.node_id}, k={self.k}, "
            f"rank={self.rank}, density={self.density}, "
            f"sparsity={self.sparsity})"
        )
