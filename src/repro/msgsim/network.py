"""Event-driven asynchronous message network.

A tiny discrete-event simulator: agents exchange messages over channels
with configurable random delays; delivery order between different channel
instances is therefore arbitrary (within the delay distribution), which is
exactly the asynchrony the protocol must tolerate.

Determinism: given the same agents, delay model and seed, execution is
bit-for-bit reproducible — ties in delivery time are broken by a global
sequence number.  A :class:`~repro.msgsim.faults.FaultPlan` makes the
channel drop, duplicate and reorder messages, still deterministically
given the fault seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Protocol as TypingProtocol, Sequence

import numpy as np

from ..obs import HUB as _OBS
from ..sim.rng import make_rng
from .faults import FaultPlan
from .messages import Message

__all__ = [
    "Agent",
    "DelayModel",
    "ConstantDelay",
    "ExponentialDelay",
    "Network",
    "MOVE_MESSAGES",
]

#: Message type names whose in-flight copies make resource load views
#: transiently inconsistent with user positions (tracked per copy).
MOVE_MESSAGES = ("Join", "Leave")


class Agent(TypingProtocol):
    """Anything that can receive messages on the network."""

    agent_id: str

    def handle(self, msg: Message, network: "Network") -> None:  # pragma: no cover
        ...


class DelayModel:
    """Produces per-message channel delays."""

    def sample(self, rng: np.random.Generator) -> float:  # pragma: no cover
        raise NotImplementedError


@dataclass(frozen=True)
class ConstantDelay(DelayModel):
    """Every message takes exactly ``delay`` time units (lockstep-like)."""

    delay: float = 0.01

    def sample(self, rng):
        return self.delay


@dataclass(frozen=True)
class ExponentialDelay(DelayModel):
    """Memoryless delays with the given mean — the adversarial-ish default."""

    mean: float = 0.05
    floor: float = 1e-4

    def sample(self, rng):
        return self.floor + float(rng.exponential(self.mean))


@dataclass(order=True)
class _Event:
    time: float
    seq: int
    dst: str = field(compare=False)
    msg: Message = field(compare=False)


class Network:
    """The event queue plus delivery bookkeeping, and the channel's faults.

    A :class:`~repro.msgsim.faults.FaultPlan` drops each channel send
    (``p_drop``), or delays it heavy-tailed (``p_reorder``) and/or
    delivers it twice (``p_duplicate``); timers are exempt and the
    counts land in ``fault_counts``.  Fault decisions draw from their own
    stream (``fault_seed``, default ``plan.seed``), so a null plan is
    bit-for-bit no plan.

    ``lossy`` (an active plan) is the contract with the protocol agents:
    ``False`` promises exactly-once delivery, so agents run the lean
    fire-and-forget protocol; ``True`` makes them enable
    acknowledgements, retransmission and watchdogs.
    """

    def __init__(
        self,
        *,
        delay_model: DelayModel | None = None,
        seed: int | np.random.Generator = 0,
        plan: FaultPlan | None = None,
        fault_seed: int | Sequence[int] | None = None,
    ):
        self.rng = make_rng(seed)
        self.delay_model = delay_model or ExponentialDelay()
        self.plan = plan if plan is not None else FaultPlan()
        self.lossy = self.plan.is_active()
        self.fault_rng = np.random.default_rng(
            self.plan.seed if fault_seed is None else fault_seed
        )
        self.fault_counts: dict[str, int] = {"dropped": 0, "duplicated": 0, "reordered": 0}
        self.agents: dict[str, Agent] = {}
        self.now: float = 0.0
        self._queue: list[_Event] = []
        self._seq = itertools.count()
        #: message counts by type name (Tick excluded: it is a timer).
        self.message_counts: dict[str, int] = {}
        #: Join/Leave messages still in flight — while positive, resource
        #: load views are transiently inconsistent with user positions.
        self.in_flight_moves: int = 0

    def register(self, agent: Agent) -> None:
        if agent.agent_id in self.agents:
            raise ValueError(f"duplicate agent id {agent.agent_id!r}")
        self.agents[agent.agent_id] = agent

    # -- sending -----------------------------------------------------------------

    def send(self, dst: str, msg: Message) -> None:
        """Send over a channel with a sampled delay; counted even if dropped."""
        if dst not in self.agents:
            raise KeyError(f"unknown agent {dst!r}")
        name = type(msg).__name__
        self.message_counts[name] = self.message_counts.get(name, 0) + 1
        # Every fault draw is guarded by its probability: a null plan
        # draws nothing from the fault stream.
        plan, frng = self.plan, self.fault_rng
        if plan.p_drop > 0 and frng.random() < plan.p_drop:
            self.fault_counts["dropped"] += 1
            return
        delay = self.delay_model.sample(self.rng)
        if plan.p_reorder > 0 and frng.random() < plan.p_reorder:
            delay += plan.reorder_scale * float(frng.pareto(plan.reorder_shape))
            self.fault_counts["reordered"] += 1
        self._enqueue(dst, msg, delay)
        if plan.p_duplicate > 0 and frng.random() < plan.p_duplicate:
            self._enqueue(dst, msg, self.delay_model.sample(frng))
            self.fault_counts["duplicated"] += 1

    def _enqueue(self, dst: str, msg: Message, delay: float) -> None:
        """Put one copy on the wire (per-copy in-flight bookkeeping)."""
        self._push(self.now + delay, dst, msg)
        if type(msg).__name__ in MOVE_MESSAGES:
            self.in_flight_moves += 1

    def schedule_timer(self, dst: str, delay: float, msg: Message) -> None:
        """Self-timer: delivered after ``delay``, not counted as a message."""
        if delay < 0:
            raise ValueError("delay must be non-negative")
        self._push(self.now + delay, dst, msg)

    def _push(self, time: float, dst: str, msg: Message) -> None:
        heapq.heappush(self._queue, _Event(time, next(self._seq), dst, msg))

    # -- running -----------------------------------------------------------------

    @property
    def total_messages(self) -> int:
        return sum(self.message_counts.values())

    def step(self) -> bool:
        """Deliver the next event; False when the queue is empty."""
        if not self._queue:
            return False
        ev = heapq.heappop(self._queue)
        self.now = ev.time
        if type(ev.msg).__name__ in MOVE_MESSAGES:
            self.in_flight_moves -= 1
        self.agents[ev.dst].handle(ev.msg, self)
        return True

    def run(
        self,
        *,
        max_time: float = float("inf"),
        max_events: int = 10_000_000,
        stop_condition: Callable[["Network"], bool] | None = None,
        check_every: int = 64,
    ) -> str:
        """Process events until stop; returns the stop reason.

        ``stop_condition`` is an *observer* (measurement oracle) evaluated
        every ``check_every`` events — it may read global state for
        experiment accounting, but agents never can.

        Telemetry: the whole delivery loop runs under one
        ``msgsim.deliver`` span; per-event hub calls would dominate the
        loop, so delivered-event totals are accumulated locally and pushed
        as counters once at exit.
        """
        reason = "max_events"
        delivered = 0
        with _OBS.span("msgsim.deliver"):
            for count in range(1, max_events + 1):
                if self._queue and self._queue[0].time > max_time:
                    reason = "max_time"
                    break
                if not self.step():
                    reason = "drained"
                    break
                delivered = count
                if stop_condition is not None and count % check_every == 0:
                    if stop_condition(self):
                        reason = "stopped"
                        break
        if _OBS.active:
            _OBS.count("msgsim.events_delivered", delivered)
            _OBS.gauge("msgsim.clock", self.now)
        return reason
