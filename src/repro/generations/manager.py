"""Generations: chunked network coding over LTNC (§I).

"Since LTNC are linear network codes, traditional optimizations (e.g.,
generations [2], [13]) ... can be directly applied" — this module
applies them.  The content's *k* native packets are split into
generations of at most *g* packets; coding (encoding, recoding,
decoding) happens strictly inside a generation.

What generations buy (Gkantsidis & Rodriguez; Maymounkov et al.):

* code-vector headers shrink from k bits to g bits;
* every coding operation touches at most g packets — for RLNC that
  turns O(k^2) decoding into O(k*g), for LTNC it bounds Tanner-graph
  width and the recoder's working set;
* memory per node scales with the generations in flight.

What they cost: the LT overhead ``epsilon`` grows as code length
shrinks, and completing *all* generations adds a coupon-collector tail.
The ``generations`` bench sweeps g to expose the trade-off.

Packets travel as :class:`GenerationPacket` (generation id + packet);
nodes hold one :class:`~repro.core.node.LtncNode` per generation,
created lazily on first contact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.coding.packet import EncodedPacket
from repro.core.node import LtncNode
from repro.errors import DimensionError, RecodingError
from repro.lt.distributions import RobustSoliton
from repro.rng import make_rng, spawn

__all__ = [
    "GenerationPacket",
    "generation_bounds",
    "GenerationSource",
    "GenerationNode",
]


@dataclass(frozen=True)
class GenerationPacket:
    """An encoded packet tagged with the generation it codes over."""

    generation: int
    packet: EncodedPacket

    @property
    def degree(self) -> int:
        return self.packet.degree

    def copy(self) -> "GenerationPacket":
        return GenerationPacket(self.generation, self.packet.copy())


def generation_bounds(k_total: int, generation_size: int) -> list[tuple[int, int]]:
    """``(start, size)`` of each generation over ``0..k_total-1``.

    The last generation absorbs the remainder and may be smaller.
    """
    if k_total <= 0:
        raise DimensionError(f"k_total must be positive, got {k_total}")
    if generation_size <= 0:
        raise DimensionError(
            f"generation_size must be positive, got {generation_size}"
        )
    bounds = []
    start = 0
    while start < k_total:
        size = min(generation_size, k_total - start)
        bounds.append((start, size))
        start += size
    return bounds


class GenerationSource:
    """Content source emitting LT packets over rotating generations."""

    def __init__(
        self,
        k_total: int,
        generation_size: int,
        content: np.ndarray | None = None,
        rng: np.random.Generator | int | None = None,
        schedule: str = "random",
    ) -> None:
        if schedule not in ("random", "round-robin"):
            raise DimensionError(
                f"schedule must be 'random' or 'round-robin', got {schedule!r}"
            )
        self.k_total = k_total
        self.bounds = generation_bounds(k_total, generation_size)
        self.schedule = schedule
        self.rng = make_rng(rng)
        rngs = spawn(self.rng, len(self.bounds))
        self.sources: list[LtncNode] = []
        for gen, (start, size) in enumerate(self.bounds):
            chunk = content[start : start + size] if content is not None else None
            self.sources.append(
                LtncNode.as_source(size, chunk, rng=rngs[gen], node_id=-1)
            )
        self._next_rr = 0

    def next_packet(self) -> GenerationPacket:
        """Emit one packet from the scheduled generation."""
        if self.schedule == "round-robin":
            gen = self._next_rr
            self._next_rr = (self._next_rr + 1) % len(self.bounds)
        else:
            gen = int(self.rng.integers(len(self.bounds)))
        return GenerationPacket(gen, self.sources[gen].make_packet())


class GenerationNode:
    """A participant decoding and recoding per generation.

    Sub-nodes are created lazily: a node allocates coding state only
    for generations it has actually seen — the memory-bounding property
    generations exist for.
    """

    def __init__(
        self,
        node_id: int,
        k_total: int,
        generation_size: int,
        payload_nbytes: int | None = None,
        rng: np.random.Generator | int | None = None,
        aggressiveness: float = 0.01,
        **node_kwargs: object,
    ) -> None:
        self.node_id = node_id
        self.k_total = k_total
        self.bounds = generation_bounds(k_total, generation_size)
        self.payload_nbytes = payload_nbytes
        self.rng = make_rng(rng)
        self.aggressiveness = aggressiveness
        self._node_kwargs = node_kwargs
        self._subnodes: dict[int, LtncNode] = {}
        self._distributions: dict[int, RobustSoliton] = {}

    # ------------------------------------------------------------------
    def subnode(self, generation: int) -> LtncNode:
        """The lazily-created per-generation LTNC node."""
        if not 0 <= generation < len(self.bounds):
            raise DimensionError(
                f"generation {generation} outside 0..{len(self.bounds) - 1}"
            )
        node = self._subnodes.get(generation)
        if node is None:
            _, size = self.bounds[generation]
            dist = self._distributions.get(size)
            node = LtncNode(
                self.node_id,
                size,
                payload_nbytes=self.payload_nbytes,
                distribution=dist,
                rng=spawn(self.rng, 1)[0],
                aggressiveness=self.aggressiveness,
                **self._node_kwargs,  # type: ignore[arg-type]
            )
            self._distributions[size] = node.distribution  # type: ignore[assignment]
            self._subnodes[generation] = node
        return node

    def generations_seen(self) -> list[int]:
        """Generations this node holds coding state for, ascending."""
        return sorted(self._subnodes)

    # ------------------------------------------------------------------
    def receive(self, gp: GenerationPacket) -> bool:
        """Route a packet to its generation's decoder."""
        return self.subnode(gp.generation).receive(gp.packet)

    def header_is_innovative(self, gp: GenerationPacket) -> bool:
        """Binary-feedback check against the right generation."""
        return self.subnode(gp.generation).header_is_innovative(
            gp.packet.vector
        )

    def is_complete(self) -> bool:
        """True iff every generation decoded fully."""
        if len(self._subnodes) < len(self.bounds):
            return False
        return all(node.is_complete() for node in self._subnodes.values())

    def completed_generations(self) -> int:
        return sum(
            1 for node in self._subnodes.values() if node.is_complete()
        )

    @property
    def decoded_count(self) -> int:
        """Total natives decoded across generations."""
        return sum(node.decoded_count for node in self._subnodes.values())

    # ------------------------------------------------------------------
    def can_send(self) -> bool:
        return any(node.can_send() for node in self._subnodes.values())

    def make_packet(self) -> GenerationPacket:
        """Recode within a uniformly chosen sendable generation."""
        ready = [
            gen for gen, node in self._subnodes.items() if node.can_send()
        ]
        if not ready:
            raise RecodingError("no generation is ready to recode")
        gen = int(ready[self.rng.integers(len(ready))])
        return GenerationPacket(gen, self._subnodes[gen].make_packet())

    # ------------------------------------------------------------------
    def decoded_content(self) -> np.ndarray:
        """Stitch the per-generation payloads back into (k_total, m)."""
        if not self.is_complete():
            done = self.completed_generations()
            raise RecodingError(
                f"only {done}/{len(self.bounds)} generations complete"
            )
        chunks = [
            self._subnodes[gen].decoded_content()
            for gen in range(len(self.bounds))
        ]
        return np.concatenate(chunks, axis=0)

    def total_ops(self, which: str = "decode") -> dict[str, int]:
        """Merged operation counts across generations (cost benches)."""
        from repro.costmodel.counters import OpCounter

        merged = OpCounter()
        for node in self._subnodes.values():
            counter = (
                node.decode_counter if which == "decode" else node.recode_counter
            )
            merged.merge(counter)
        return merged.snapshot()

    def __repr__(self) -> str:
        return (
            f"GenerationNode(id={self.node_id}, k={self.k_total}, "
            f"generations={self.completed_generations()}/"
            f"{len(self.bounds)} complete)"
        )
