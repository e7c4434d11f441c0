"""Degree distributions for LT codes.

LT codes (Luby, FOCS'02) draw the degree of every encoded packet from
the **Robust Soliton** distribution (paper Fig. 2): the Ideal Soliton
``rho`` — which would make the decoding ripple size exactly one in
expectation — plus a correction ``tau`` that (i) boosts degree-1/2 mass
so belief propagation can bootstrap and survive variance, and (ii) adds
a spike at ``k/R`` ensuring every native is eventually covered.

The paper relies on two properties that our benches verify:

* more than 50 % of the mass sits on degrees 1 and 2, which powers
  LTNC's refinement step (§III-B3);
* the mean degree is O(log k), which bounds belief-propagation cost.
"""

from __future__ import annotations

import bisect
import math
from typing import Sequence

import numpy as np

from repro.errors import DistributionError

__all__ = [
    "DegreeDistribution",
    "IdealSoliton",
    "RobustSoliton",
    "TruncatedUniform",
    "empirical_degrees",
    "total_variation",
]


class DegreeDistribution:
    """A probability distribution over packet degrees ``1..k``.

    Concrete distributions provide ``pmf`` (index 0 unused); this base
    class supplies sampling, moments and comparison utilities.
    """

    def __init__(self, k: int, pmf: np.ndarray) -> None:
        if k <= 0:
            raise DistributionError(f"k must be positive, got {k}")
        pmf = np.asarray(pmf, dtype=np.float64)
        if pmf.shape != (k + 1,):
            raise DistributionError(
                f"pmf must have shape ({k + 1},), got {pmf.shape}"
            )
        if pmf[0] != 0.0 or (pmf < 0).any():
            raise DistributionError("pmf must be zero at 0 and non-negative")
        total = pmf.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
            raise DistributionError(f"pmf sums to {total}, expected 1")
        self.k = k
        self.pmf = pmf
        self._cdf = np.cumsum(pmf)
        # Guard against floating error at the top of the CDF.
        self._cdf[-1] = 1.0
        # The CDF as a Python list: bisect over it skips numpy's
        # per-call dispatch on the scalar draws recoding makes.
        self._cdf_list: list[float] = self._cdf.tolist()

    # ------------------------------------------------------------------
    def sample(self, rng: np.random.Generator) -> int:
        """Draw one degree from a single ``rng.random()`` draw.

        ``bisect_right`` over the CDF performs the same float64
        comparisons as ``np.searchsorted(cdf, u, side="right")``.
        """
        return bisect.bisect_right(self._cdf_list, rng.random())

    def sample_many(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw *n* degrees at once."""
        return np.searchsorted(
            self._cdf, rng.random(n), side="right"
        ).astype(np.int64)

    # ------------------------------------------------------------------
    def probability(self, d: int) -> float:
        """P(degree = d); zero outside ``1..k``."""
        if 1 <= d <= self.k:
            return float(self.pmf[d])
        return 0.0

    def mean(self) -> float:
        """Expected degree."""
        return float(np.arange(self.k + 1) @ self.pmf)

    def mass_below(self, d: int) -> float:
        """P(degree <= d)."""
        if d < 1:
            return 0.0
        return float(self._cdf[min(d, self.k)])

    def support(self) -> np.ndarray:
        """Degrees with nonzero probability."""
        return np.flatnonzero(self.pmf > 0)

    def max_degree(self) -> int:
        """Largest degree with nonzero probability."""
        return int(self.support().max())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(k={self.k}, mean={self.mean():.2f})"


class IdealSoliton(DegreeDistribution):
    """The Ideal Soliton: rho(1) = 1/k, rho(i) = 1/(i(i-1)).

    Optimal in expectation (ripple of size one) but fragile in practice;
    kept as a reference and as the base of the Robust Soliton.
    """

    def __init__(self, k: int) -> None:
        if k <= 0:
            raise DistributionError(f"k must be positive, got {k}")
        pmf = np.zeros(k + 1)
        pmf[1] = 1.0 / k
        degrees = np.arange(2, k + 1, dtype=np.float64)
        pmf[2:] = 1.0 / (degrees * (degrees - 1.0))
        super().__init__(k, pmf / pmf.sum())


class RobustSoliton(DegreeDistribution):
    """The Robust Soliton distribution mu = (rho + tau) / beta.

    Parameters
    ----------
    k:
        Code length (number of native packets).
    c:
        Ripple-size constant; larger values widen the spike and increase
        low-degree mass.  Luby suggests values well below 1.
    delta:
        Target decoding-failure probability bound.

    Notes
    -----
    ``R = c * ln(k / delta) * sqrt(k)`` is the expected ripple size; the
    spike sits at ``k / R``.
    """

    def __init__(self, k: int, c: float = 0.1, delta: float = 0.05) -> None:
        if k <= 0:
            raise DistributionError(f"k must be positive, got {k}")
        if c <= 0:
            raise DistributionError(f"c must be positive, got {c}")
        if not 0 < delta < 1:
            raise DistributionError(f"delta must be in (0, 1), got {delta}")
        self.c = c
        self.delta = delta
        self.R = c * math.log(k / delta) * math.sqrt(k)

        rho = np.zeros(k + 1)
        rho[1] = 1.0 / k
        degrees = np.arange(2, k + 1, dtype=np.float64)
        rho[2:] = 1.0 / (degrees * (degrees - 1.0))

        tau = np.zeros(k + 1)
        spike = int(round(k / self.R))
        spike = max(1, min(spike, k))
        self.spike = spike
        for i in range(1, spike):
            tau[i] = self.R / (i * k)
        tau[spike] = self.R * math.log(self.R / delta) / k if self.R > delta else 0.0

        pmf = rho + tau
        self.beta = float(pmf.sum())
        super().__init__(k, pmf / self.beta)

    def low_degree_mass(self) -> float:
        """P(degree <= 2) — the refinement power of LTNC (§III-B3)."""
        return self.mass_below(2)


class TruncatedUniform(DegreeDistribution):
    """Uniform over ``1..dmax`` — a deliberately bad control distribution.

    Used by ablation tests to show that belief propagation degrades when
    the Robust Soliton structure is not preserved, which is precisely
    the failure mode LTNC's recoding algorithms exist to prevent.
    """

    def __init__(self, k: int, dmax: int | None = None) -> None:
        if k <= 0:
            raise DistributionError(f"k must be positive, got {k}")
        dmax = k if dmax is None else dmax
        if not 1 <= dmax <= k:
            raise DistributionError(f"dmax must be in 1..{k}, got {dmax}")
        pmf = np.zeros(k + 1)
        pmf[1 : dmax + 1] = 1.0 / dmax
        super().__init__(k, pmf)


def empirical_degrees(degrees: Sequence[int], k: int) -> np.ndarray:
    """Empirical pmf (length k+1) from observed degrees."""
    pmf = np.zeros(k + 1)
    for d in degrees:
        if not 1 <= d <= k:
            raise DistributionError(f"degree {d} outside 1..{k}")
        pmf[d] += 1.0
    if pmf.sum() > 0:
        pmf /= pmf.sum()
    return pmf


def total_variation(p: np.ndarray, q: np.ndarray) -> float:
    """Total-variation distance between two pmfs on the same support."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise DistributionError(f"shape mismatch: {p.shape} vs {q.shape}")
    return float(0.5 * np.abs(p - q).sum())
