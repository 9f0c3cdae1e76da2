"""Message-passing simulator: the protocol as real distributed agents.

The round-based engine (:mod:`repro.sim`) is a fast global-view simulation.
This package is the ground truth it is validated against: user and resource
agents that communicate *only* through messages over delayed channels,
with no shared memory (experiment T3 cross-validates the two).

:mod:`repro.msgsim.faults` describes the adversary the transport plays —
message loss, duplication and reordering — and the agents answer with a
self-healing layer (request ids, acks, bounded retransmission, watchdogs;
experiment F13).
"""

from .agents import ResourceAgent, UserAgent, resource_id, user_id
from .faults import FaultPlan, certify_message_conservation
from .messages import (
    Join,
    Leave,
    LoadQuery,
    LoadReply,
    Message,
    MoveAck,
    RetryTimer,
    Tick,
)
from .network import (
    Agent,
    ConstantDelay,
    DelayModel,
    ExponentialDelay,
    Network,
)
from .runner import MessageSimResult, run_message_sim

__all__ = [
    "Message",
    "Tick",
    "LoadQuery",
    "LoadReply",
    "Join",
    "Leave",
    "MoveAck",
    "RetryTimer",
    "Agent",
    "Network",
    "DelayModel",
    "ConstantDelay",
    "ExponentialDelay",
    "ResourceAgent",
    "UserAgent",
    "user_id",
    "resource_id",
    "FaultPlan",
    "certify_message_conservation",
    "MessageSimResult",
    "run_message_sim",
]
