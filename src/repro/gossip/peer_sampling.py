"""Peer-sampling service for the epidemic overlay (§IV-A).

The paper pushes packets "to nodes picked uniformly at random in the
network, using an underlying peer sampling service (e.g., [23])" with
the push sets "renewed periodically in a gossip fashion", i.e. a
dynamic unstructured overlay.

Two implementations:

* :class:`UniformSampler` — the idealization those services converge
  to: every draw is uniform over the membership;
* :class:`ViewSampler` — a bounded partial view per node, refreshed
  with fresh uniform entries every *renewal_period* rounds, modelling
  the gossip-based view renewal explicitly (and letting tests show the
  idealization is faithful).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import SimulationError
from repro.rng import make_rng

__all__ = ["PeerSampler", "UniformSampler", "ViewSampler"]


class PeerSampler:
    """Interface: supply gossip targets for a node at a given round."""

    def peers(self, node_id: int, n: int, round_index: int) -> list[int]:
        """Return *n* distinct peer ids for *node_id* (never itself)."""
        raise NotImplementedError

    def peers_batch(
        self, node_ids: Sequence[int], round_index: int
    ) -> list[int]:
        """One gossip target per node in *node_ids*, in order.

        Contract (round-plan v1, see ``gossip.simulator``): the rng
        stream consumed must be *bit-identical* to calling
        ``peers(node_id, 1, round_index)`` once per id, in order.  This
        loop-over-``peers`` default guarantees that for every sampler;
        subclasses may vectorise, but only with a draw-for-draw
        equivalent bulk formulation (``UniformSampler`` is the worked
        example, pinned by ``tests/test_batch_equivalence.py``).
        """
        return [
            self.peers(node_id, 1, round_index)[0] for node_id in node_ids
        ]


class UniformSampler(PeerSampler):
    """Uniform random peers over the full membership."""

    def __init__(
        self, n_nodes: int, rng: np.random.Generator | int | None = None
    ) -> None:
        if n_nodes < 2:
            raise SimulationError(
                f"need at least 2 nodes to gossip, got {n_nodes}"
            )
        self.n_nodes = n_nodes
        self.rng = make_rng(rng)

    def peers(self, node_id: int, n: int, round_index: int) -> list[int]:
        n = min(n, self.n_nodes - 1)
        picks = self.rng.choice(self.n_nodes - 1, size=n, replace=False)
        # Skip over node_id by shifting the tail of the range.
        return [int(p) if p < node_id else int(p) + 1 for p in picks]

    def peers_batch(
        self, node_ids: Sequence[int], round_index: int
    ) -> list[int]:
        """Vectorised single-target draws, stream-identical to ``peers``.

        ``Generator.choice(m, size=1, replace=False)`` consumes exactly
        one bounded draw — the same stream advance as
        ``Generator.integers(m)`` — and bulk ``integers(m, size=n)``
        equals *n* sequential scalar draws, so this one bulk call
        produces the identical targets (and leaves the generator in the
        identical state) as a scalar loop over :meth:`peers`.
        """
        if not node_ids:
            return []
        picks = self.rng.integers(self.n_nodes - 1, size=len(node_ids))
        ids = np.asarray(node_ids)
        return (picks + (picks >= ids)).tolist()


class ViewSampler(PeerSampler):
    """Bounded partial views with periodic gossip-style renewal.

    Each node holds a view of *view_size* peers.  Every
    *renewal_period* rounds half the view (rounded up) is replaced with
    fresh uniform samples, mimicking the shuffling of gossip-based peer
    sampling protocols; draws then pick uniformly inside the view.
    """

    def __init__(
        self,
        n_nodes: int,
        view_size: int = 8,
        renewal_period: int = 1,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if n_nodes < 2:
            raise SimulationError(
                f"need at least 2 nodes to gossip, got {n_nodes}"
            )
        if view_size < 1:
            raise SimulationError(f"view_size must be >= 1, got {view_size}")
        if renewal_period < 1:
            raise SimulationError(
                f"renewal_period must be >= 1, got {renewal_period}"
            )
        self.n_nodes = n_nodes
        self.view_size = min(view_size, n_nodes - 1)
        self.renewal_period = renewal_period
        self.rng = make_rng(rng)
        self._views: list[list[int]] = [
            self._fresh_view(i, self.view_size) for i in range(n_nodes)
        ]
        self._last_renewal = 0

    def _fresh_view(self, node_id: int, n: int) -> list[int]:
        picks = self.rng.choice(self.n_nodes - 1, size=n, replace=False)
        return [int(p) if p < node_id else int(p) + 1 for p in picks]

    def _renew(self, round_index: int) -> None:
        while self._last_renewal + self.renewal_period <= round_index:
            self._last_renewal += self.renewal_period
            replace = (self.view_size + 1) // 2
            for node_id, view in enumerate(self._views):
                # Keep the younger half of the view, refill the rest
                # with fresh uniform samples (dedup preserves size).
                fresh = self._fresh_view(node_id, self.view_size)
                merged: list[int] = []
                for candidate in view[replace:] + fresh:
                    if candidate not in merged:
                        merged.append(candidate)
                    if len(merged) == self.view_size:
                        break
                self._views[node_id] = merged

    def view_of(self, node_id: int) -> list[int]:
        """Current partial view of *node_id* (a copy)."""
        return list(self._views[node_id])

    def peers(self, node_id: int, n: int, round_index: int) -> list[int]:
        self._renew(round_index)
        view = self._views[node_id]
        n = min(n, len(view))
        picks = self.rng.choice(len(view), size=n, replace=False)
        return [view[int(p)] for p in picks]
