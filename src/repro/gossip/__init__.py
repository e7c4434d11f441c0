"""Epidemic push dissemination: peer sampling, simulator, metrics.

Scheme dispatch lives in :mod:`repro.schemes`.
"""

from repro.gossip.channel import ChannelModel, ChurnPhase, HeterogeneousChannel
from repro.gossip.metrics import DisseminationResult
from repro.gossip.peer_sampling import PeerSampler, UniformSampler, ViewSampler
from repro.gossip.simulator import EpidemicSimulator, Feedback, run_dissemination
from repro.gossip.wireless import WirelessResult, WirelessSimulator

__all__ = [
    "ChannelModel",
    "ChurnPhase",
    "HeterogeneousChannel",
    "DisseminationResult",
    "PeerSampler",
    "UniformSampler",
    "ViewSampler",
    "EpidemicSimulator",
    "Feedback",
    "run_dissemination",
    "WirelessResult",
    "WirelessSimulator",
]
