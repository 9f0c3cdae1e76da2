"""Message vocabulary of the distributed QoS load-balancing protocol.

Everything an agent learns arrives in one of these messages; there is no
shared memory.  The vocabulary is deliberately minimal — the point of the
message-passing simulator is to certify that the protocol's information
model is honest:

- a user talks to its **own** resource to learn whether it is satisfied
  (:class:`LoadQuery` / :class:`LoadReply` with ``probe=False``);
- a user talks to **one sampled** resource per attempt to learn whether it
  would be satisfied there (``probe=True`` — the reply quotes the latency
  *after* a hypothetical arrival of the user's weight);
- migration is a :class:`Leave` to the old resource plus a :class:`Join`
  to the new one (in flight, the user is counted nowhere — transient
  inconsistency is part of the asynchronous model).

:class:`Tick` is a self-addressed timer, not communication.

Resilience metadata (all optional, defaulted so the vocabulary stays
backward compatible): queries and replies carry a ``req_id`` so a user can
reject stale or duplicated replies exactly; joins and leaves carry a
per-user monotone ``seq`` so resources can deduplicate replayed moves; and
:class:`MoveAck` closes the loop for reliable (retransmitted) delivery of
moves over a lossy network.  :class:`RetryTimer` is the self-addressed
watchdog/retransmission timer — like :class:`Tick`, it is a timer, not
communication, and it is only ever scheduled when the network is lossy.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Message",
    "Tick",
    "LoadQuery",
    "LoadReply",
    "Join",
    "Leave",
    "MoveAck",
    "RetryTimer",
]


@dataclass(frozen=True)
class Message:
    """Base class: every message names its sender agent id."""

    sender: str


@dataclass(frozen=True)
class Tick(Message):
    """Self-scheduled activation timer of a user agent."""


@dataclass(frozen=True)
class LoadQuery(Message):
    """User -> resource: report your congestion state.

    ``weight`` is the asking user's weight; ``probe`` distinguishes a
    satisfaction check on the user's own resource (latency at the current
    load) from a migration probe (latency after a hypothetical arrival).
    """

    weight: float
    probe: bool
    req_id: int = 0


@dataclass(frozen=True)
class LoadReply(Message):
    """Resource -> user: current load and the quoted latency.

    ``latency`` is the latency at the current load for ``probe=False``
    queries, and the post-arrival latency ``ell(x + weight)`` for
    ``probe=True`` queries.  ``resource`` echoes the resource index so the
    user can act on stale replies correctly.
    """

    resource: int
    load: float
    latency: float
    probe: bool
    req_id: int = 0


@dataclass(frozen=True)
class Join(Message):
    """User -> resource: I am now one of your residents."""

    weight: float
    seq: int = 0


@dataclass(frozen=True)
class Leave(Message):
    """User -> resource: I have departed."""

    weight: float
    seq: int = 0


@dataclass(frozen=True)
class MoveAck(Message):
    """Resource -> user: your move ``seq`` has been applied (or superseded).

    Only sent over lossy networks (``network.lossy``); on a reliable
    network moves are fire-and-forget, exactly as in the original
    protocol.  An ack for a stale ``seq`` means a later move from the same
    user already overtook it — either way, retransmission can stop.
    """

    resource: int
    seq: int


@dataclass(frozen=True)
class RetryTimer(Message):
    """Self-addressed watchdog timer for one outstanding request or move.

    ``kind`` is ``"query"`` (a LoadQuery awaiting its reply) or ``"move"``
    (an unacknowledged Join/Leave).  ``token`` names the request id or
    the move seq respectively.
    """

    kind: str
    token: int
