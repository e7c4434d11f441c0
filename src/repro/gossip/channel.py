"""Channel imperfections and node churn for failure injection.

The paper's evaluation assumes reliable unicast (TCP) and a static
membership served by the peer sampler.  Real deployments — the sensor
networks of the paper's motivation in particular — lose packets,
deliver duplicates, and lose nodes.  Rateless codes are supposed to
shrug all three off: a lost encoded packet is replaced by any future
one, a duplicate is redundancy the detectors already handle, and a
restarted node simply starts collecting again.

:class:`ChannelModel` injects those faults into the simulator so tests
can verify the claim end-to-end:

* ``loss_rate`` — a data transfer vanishes in transit after the header
  exchange (the session and the payload bytes are spent, the receiver
  learns nothing);
* ``duplicate_rate`` — the payload is delivered twice (at-least-once
  transports);
* ``churn_rate`` — per-round probability that one incomplete node
  crashes and restarts empty (completed nodes have persisted the
  content and are not affected).

:class:`HeterogeneousChannel` extends the model with per-receiver loss
rates (nodes far from the source on a lossy multihop path, à la the
powerline smart-grid deployments of Kabore et al.) and with scheduled
:class:`ChurnPhase` windows (flash crowds, maintenance storms) that
override the base ``churn_rate`` for a span of rounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SimulationError

__all__ = ["ChannelModel", "ChurnPhase", "HeterogeneousChannel"]


@dataclass(frozen=True)
class ChannelModel:
    """Fault rates injected into a dissemination run."""

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    churn_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "churn_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise SimulationError(
                    f"{name} must be in [0, 1], got {value}"
                )

    @property
    def is_perfect(self) -> bool:
        return (
            self.loss_rate == 0.0
            and self.duplicate_rate == 0.0
            and self.churn_rate == 0.0
        )

    def loss_for(self, sender: int = -1, receiver: int = -1) -> float:
        """Loss probability on the *sender* → *receiver* link."""
        return self.loss_rate

    def churn_rate_at(self, round_index: int = 0) -> float:
        """Per-round churn probability in effect at *round_index*."""
        return self.churn_rate

    def loses(
        self,
        rng: np.random.Generator,
        sender: int = -1,
        receiver: int = -1,
    ) -> bool:
        rate = self.loss_for(sender, receiver)
        return rate > 0.0 and rng.random() < rate

    def duplicates(self, rng: np.random.Generator) -> bool:
        return self.duplicate_rate > 0.0 and rng.random() < self.duplicate_rate

    def churns(self, rng: np.random.Generator, round_index: int = 0) -> bool:
        rate = self.churn_rate_at(round_index)
        return rate > 0.0 and rng.random() < rate


@dataclass(frozen=True)
class ChurnPhase:
    """A span of rounds during which a specific churn rate applies.

    ``end`` is exclusive; ``None`` leaves the phase open-ended.  Phases
    are checked in order and the first match wins; outside every phase
    the channel's base ``churn_rate`` applies.
    """

    start: int
    end: int | None
    rate: float

    def __post_init__(self) -> None:
        if self.start < 0:
            raise SimulationError(f"phase start must be >= 0, got {self.start}")
        if self.end is not None and self.end <= self.start:
            raise SimulationError(
                f"phase end must exceed start, got [{self.start}, {self.end})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise SimulationError(
                f"phase rate must be in [0, 1], got {self.rate}"
            )

    def covers(self, round_index: int) -> bool:
        return self.start <= round_index and (
            self.end is None or round_index < self.end
        )


@dataclass(frozen=True)
class HeterogeneousChannel(ChannelModel):
    """Per-receiver loss rates and scheduled churn on top of the base model.

    ``node_loss[i]`` replaces ``loss_rate`` for transfers *into* node
    ``i`` — the natural encoding of a multihop topology where each
    extra hop from the source compounds erasures.  Receivers beyond the
    tuple (and the out-of-overlay source, id ``-1``) fall back to the
    base ``loss_rate``.
    """

    node_loss: tuple[float, ...] = ()
    churn_phases: tuple[ChurnPhase, ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        for i, rate in enumerate(self.node_loss):
            if not 0.0 <= rate <= 1.0:
                raise SimulationError(
                    f"node_loss[{i}] must be in [0, 1], got {rate}"
                )

    @property
    def is_perfect(self) -> bool:
        return (
            super().is_perfect
            and all(rate == 0.0 for rate in self.node_loss)
            and all(phase.rate == 0.0 for phase in self.churn_phases)
        )

    def loss_for(self, sender: int = -1, receiver: int = -1) -> float:
        if 0 <= receiver < len(self.node_loss):
            return self.node_loss[receiver]
        return self.loss_rate

    def churn_rate_at(self, round_index: int = 0) -> float:
        for phase in self.churn_phases:
            if phase.covers(round_index):
                return phase.rate
        return self.churn_rate
