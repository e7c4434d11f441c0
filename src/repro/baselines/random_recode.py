"""Structure-destroying baseline: random recoding of LT packets.

The scientific crux of the paper is that recoding must *preserve* the
statistical structure of LT codes for belief propagation to stay
usable.  Prior art (the paper cites Raptor network video coding [9])
recodes LT/Raptor packets with random combinations — whereupon "the
decoder must perform a high complexity Gauss reduction thus loosing
the benefit of belief propagation" (§V).

:class:`RandomRecodeNode` isolates exactly that failure mode: it is an
:class:`~repro.core.node.LtncNode` in every respect (same Tanner graph,
same belief-propagation decoder, same redundancy detection, same
feedback hooks) except that :meth:`make_packet` XORs a uniformly random
subset of the held packets instead of running the pick / build / refine
pipeline.  Degrees of recoded packets then drift away from the Robust
Soliton — low-degree packets vanish, the ripple starves — and a
BP-only receiver pays a large packet overhead or stalls outright.

The ``ablation_structure`` bench quantifies the gap; the comparison is
apples-to-apples because *only* the recoding policy differs.
"""

from __future__ import annotations

import numpy as np

from repro.coding.packet import EncodedPacket, xor_payloads
from repro.core.node import LtncNode
from repro.errors import RecodingError

__all__ = ["RandomRecodeNode"]


class RandomRecodeNode(LtncNode):
    """LTNC node whose recoding ignores the LT structure (baseline).

    Parameters are those of :class:`~repro.core.node.LtncNode` plus:

    combine:
        Upper bound on how many held items (stored packets or decoded
        natives) each recoded packet XORs together; the actual count is
        drawn uniformly from ``1..combine``, so the baseline does emit
        occasional single-item forwards (pure many-way recoding never
        produces the degree-1 packets belief propagation needs to start
        at all).  Defaults to the RLNC sparsity ``ln k + 20`` — what
        "random linear recoding of LT packets" means in the prior art
        the paper contrasts with.  Forcing it down toward 1 turns the
        baseline into plain forwarding, which *does* preserve structure
        but gives up the diversity benefit of network coding.
    """

    scheme = "rndlt"

    def __init__(
        self, *args: object, combine: int | None = None, **kwargs: object
    ) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        if combine is None:
            from repro.rlnc.node import default_sparsity

            combine = default_sparsity(self.k)
        if combine < 1:
            raise RecodingError(f"combine must be >= 1, got {combine}")
        self.combine = combine

    def make_packet(self, receiver_state: object | None = None) -> EncodedPacket:
        """XOR a uniform random subset of held items — no LT structure.

        The held items are the decoded natives in ascending index, then
        the stored pids in ascending order (the graph's insertion
        order); each drawn index maps to one of them.
        ``receiver_state`` is accepted for protocol compatibility and
        ignored: without degree discipline there is nothing for the
        smart construction to steer.
        """
        graph = self.decoder.graph
        natives = sorted(graph.decoded)
        pids = list(graph.packets)
        n_natives = len(natives)
        n_items = n_natives + len(pids)
        if not n_items:
            raise RecodingError("no packets available; cannot recode")

        def held(j: int) -> tuple[set[int], np.ndarray | None]:
            if j < n_natives:
                native = natives[j]
                return {native}, graph.decoded[native]
            packet = graph.packets[pids[j - n_natives]]
            return packet.support, packet.payload

        cap = min(self.combine, n_items)
        self.recode_counter.add("rng_draw", 2)
        t = int(self.rng.integers(1, cap + 1))
        picks = self.rng.choice(n_items, size=t, replace=False).tolist()
        support: set[int] = set()
        payload = None
        for j in picks:
            candidate, item_payload = held(j)
            support.symmetric_difference_update(candidate)
            self.recode_counter.add("vec_word_xor", (self.k + 63) >> 6)
            payload = xor_payloads(payload, item_payload, self.recode_counter)
        if not support:
            # The draw cancelled out; fall back to forwarding one item.
            candidate, item_payload = held(picks[0])
            support = set(candidate)
            payload = xor_payloads(None, item_payload, self.recode_counter)
        return self._finish_packet(support, payload)
