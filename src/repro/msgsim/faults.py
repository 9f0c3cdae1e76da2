"""Fault injection for the message simulator: the network that lies.

The plain :class:`~repro.msgsim.network.Network` is a perfect transport —
every message is delivered exactly once and every agent is always up.
Real distributed executions (the setting the paper's dynamics are meant
for) get none of that, so this module provides the adversary:

- :class:`FaultPlan` — a declarative, seeded description of what goes
  wrong: i.i.d. per-transmission message **drop** and **duplication**,
  heavy-tailed extra **reordering delays**, timed **link partitions**
  (:class:`LinkPartition`), and **agent crash/restart** windows
  (:class:`CrashWindow`).  :meth:`FaultPlan.from_events` translates the
  round-engine's failure events (:mod:`repro.sim.events`) into crash
  windows, so one scenario description drives both execution models.
- :class:`UnreliableNetwork` — a :class:`Network` that executes the plan.
  Fault decisions draw from a **dedicated RNG stream** (``plan.seed`` +
  run seed), never from the delay stream, so a null plan is bit-for-bit
  identical to the reliable network: same delays, same delivery order,
  same trajectory.  Sends to crashed or unknown agents become counted
  drops instead of exceptions; crashed agents silently lose everything
  addressed to them (timers included) until their window closes, at which
  point their ``on_restart`` hook fires.
- :func:`certify_message_conservation` — a naive auditor: at
  quiescence, every resource's load must equal the summed weight of the
  users that authoritatively reside on it, and the resource's resident
  set must agree with the users' own records.  Under drops, duplication
  and replays this holds *only* if the protocol hardening (sequence
  numbers, acks, retransmission — see :mod:`repro.msgsim.agents`) is
  correct, which is exactly why it is checked.

Everything is deterministic given ``(plan, seeds)``; the fault counters
(``UnreliableNetwork.fault_counts``) are surfaced through
:class:`~repro.msgsim.runner.MessageSimResult`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .messages import Message, RetryTimer, Tick
from .network import MOVE_MESSAGES, DelayModel, Network

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.events import Event

__all__ = [
    "CrashWindow",
    "LinkPartition",
    "FaultPlan",
    "UnreliableNetwork",
    "certify_message_conservation",
]

#: Self-addressed timers: dropped silently on crash, never counted as
#: channel traffic and never subject to link faults.
_TIMER_TYPES = (Tick, RetryTimer)


@dataclass(frozen=True)
class CrashWindow:
    """Agent ``agent`` is down during ``[start, end)``.

    While down, everything addressed to it — messages *and* its own
    timers — is silently lost.  If ``end`` is finite the agent restarts:
    its ``on_restart(network)`` hook (if any) runs, re-arming tick chains
    and retransmission timers from the agent's durable state.  ``end``
    may be ``inf`` for a permanent crash (note that a permanently crashed
    user can never converge, so convergence experiments want finite
    windows).
    """

    agent: str
    start: float
    end: float = float("inf")

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"crash window needs 0 <= start < end, got [{self.start}, {self.end})"
            )

    def covers(self, t: float) -> bool:
        return self.start <= t < self.end


@dataclass(frozen=True)
class LinkPartition:
    """The agents in ``island`` are cut off from everyone else in ``[start, end)``.

    Messages with exactly one endpoint inside the island are dropped (both
    directions); traffic within the island and within the mainland flows
    normally.  Timers are unaffected (they are local, not network).
    """

    island: tuple[str, ...]
    start: float
    end: float

    def __post_init__(self):
        if self.start < 0 or self.end <= self.start:
            raise ValueError(
                f"partition needs 0 <= start < end, got [{self.start}, {self.end})"
            )
        if not self.island:
            raise ValueError("partition island must name at least one agent")
        object.__setattr__(self, "island", tuple(self.island))

    def separates(self, src: str, dst: str, t: float) -> bool:
        if not (self.start <= t < self.end):
            return False
        return (src in self.island) != (dst in self.island)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of an unreliable execution environment.

    ``p_drop``/``p_duplicate``/``p_reorder`` apply independently to every
    channel transmission (never to self-addressed timers).  A reorder
    event adds a Pareto-tailed extra delay of
    ``reorder_scale * Pareto(reorder_shape)`` time units, so a small
    fraction of messages arrives *much* later — the classic cause of
    stale-reply and replayed-move bugs.  ``partitions`` and ``crashes``
    are timed structural faults.  ``seed`` feeds the dedicated fault RNG
    (combined with the run seed), keeping fault decisions independent of
    the delay stream.
    """

    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_reorder: float = 0.0
    reorder_shape: float = 1.5
    reorder_scale: float = 0.5
    partitions: tuple[LinkPartition, ...] = ()
    crashes: tuple[CrashWindow, ...] = ()
    seed: int = 0

    def __post_init__(self):
        for name in ("p_drop", "p_duplicate", "p_reorder"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.reorder_shape <= 0 or self.reorder_scale < 0:
            raise ValueError("reorder_shape must be > 0 and reorder_scale >= 0")
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "crashes", tuple(self.crashes))

    def is_active(self) -> bool:
        """Whether this plan injects any fault at all (a null plan is a no-op)."""
        return bool(
            self.p_drop > 0
            or self.p_duplicate > 0
            or self.p_reorder > 0
            or self.partitions
            or self.crashes
        )

    def describe(self) -> dict:
        """Plain-data summary (trace/result metadata), event-style."""
        return {
            "type": type(self).__name__,
            "p_drop": self.p_drop,
            "p_duplicate": self.p_duplicate,
            "p_reorder": self.p_reorder,
            "n_partitions": len(self.partitions),
            "n_crashes": len(self.crashes),
            "seed": self.seed,
        }

    @classmethod
    def from_events(
        cls,
        events: Iterable["Event"],
        *,
        tick_interval: float = 1.0,
        **kwargs,
    ) -> "FaultPlan":
        """Translate round-engine failure events into crash windows.

        A :class:`~repro.sim.events.ResourceFailure` at round ``r``
        becomes a crash of agent ``res:<i>`` starting at ``r *
        tick_interval``; a later :class:`ResourceRecovery` for the same
        resource closes the window (otherwise it stays open forever).
        Population-churn events (``UserArrival``/``UserDeparture``) have
        no message-sim analogue yet and are rejected.  Extra ``kwargs``
        (``p_drop`` etc.) pass through to the plan.
        """
        from ..sim.events import ResourceFailure, ResourceRecovery

        open_windows: dict[int, float] = {}
        windows: list[CrashWindow] = []
        for ev in sorted(events, key=lambda e: e.round_index):
            if isinstance(ev, ResourceFailure):
                if ev.resource in open_windows:
                    raise ValueError(
                        f"resource {ev.resource} fails twice without recovering"
                    )
                open_windows[ev.resource] = ev.round_index * tick_interval
            elif isinstance(ev, ResourceRecovery):
                if ev.resource not in open_windows:
                    raise ValueError(
                        f"recovery of resource {ev.resource} without a failure"
                    )
                start = open_windows.pop(ev.resource)
                windows.append(
                    CrashWindow(f"res:{ev.resource}", start, ev.round_index * tick_interval)
                )
            else:
                raise ValueError(
                    f"{type(ev).__name__} has no message-sim fault analogue"
                )
        for resource, start in sorted(open_windows.items()):
            windows.append(CrashWindow(f"res:{resource}", start))
        return cls(crashes=tuple(windows), **kwargs)


@dataclass(frozen=True)
class _Restart(Message):
    """Internal control message: a crash window just closed for ``agent``."""

    agent: str


class _FaultController:
    """Hidden agent that turns scheduled restarts back into agent hooks."""

    agent_id = "fault:ctl"

    def handle(self, msg: Message, network: "UnreliableNetwork") -> None:
        if isinstance(msg, _Restart):
            network._restart(msg.agent)
        else:  # pragma: no cover - nothing else is ever addressed here
            raise TypeError(f"fault controller cannot handle {type(msg).__name__}")


class UnreliableNetwork(Network):
    """A :class:`Network` that executes a :class:`FaultPlan`.

    Per-send fault pipeline (channel messages only; timers are exempt):
    unknown destination -> counted drop; partitioned link -> counted
    drop; ``p_drop`` -> counted drop; otherwise enqueue, possibly with a
    heavy-tailed extra delay (``p_reorder``) and possibly twice
    (``p_duplicate``).  Per-delivery: a destination inside a crash window
    loses the message (counted) or timer (silent).  All counters live in
    ``fault_counts``.
    """

    def __init__(
        self,
        *,
        plan: FaultPlan,
        delay_model: DelayModel | None = None,
        seed: int | np.random.Generator = 0,
        fault_seed: int | Sequence[int] | None = None,
    ):
        super().__init__(delay_model=delay_model, seed=seed)
        self.plan = plan
        self.lossy = plan.is_active()
        if fault_seed is None:
            fault_seed = plan.seed
        self.fault_rng = np.random.default_rng(fault_seed)
        self.fault_counts: dict[str, int] = {
            "dropped": 0,
            "duplicated": 0,
            "reordered": 0,
            "partition_dropped": 0,
            "crash_dropped": 0,
            "unknown_dropped": 0,
        }
        self._crash_windows: dict[str, list[CrashWindow]] = {}
        for window in plan.crashes:
            self._crash_windows.setdefault(window.agent, []).append(window)
        if plan.crashes:
            self.register(_FaultController())
            for window in plan.crashes:
                if np.isfinite(window.end):
                    self.schedule_timer(
                        _FaultController.agent_id, window.end, _Restart("fault:ctl", window.agent)
                    )

    # -- crash bookkeeping -------------------------------------------------------

    def is_crashed(self, agent_id: str, t: float | None = None) -> bool:
        """Whether ``agent_id`` is inside a crash window at time ``t`` (default now)."""
        t = self.now if t is None else t
        return any(w.covers(t) for w in self._crash_windows.get(agent_id, ()))

    def _restart(self, agent_id: str) -> None:
        agent = self.agents.get(agent_id)
        if agent is None or self.is_crashed(agent_id):
            return  # unknown, or still inside an overlapping window
        hook = getattr(agent, "on_restart", None)
        if hook is not None:
            hook(self)

    # -- faulty transport --------------------------------------------------------

    def send(self, dst: str, msg: Message) -> None:
        self._record_send(msg)
        if dst not in self.agents:
            self.fault_counts["unknown_dropped"] += 1
            return
        if not self.lossy:
            self._enqueue(dst, msg)
            return
        plan = self.plan
        for cut in plan.partitions:
            if cut.separates(msg.sender, dst, self.now):
                self.fault_counts["partition_dropped"] += 1
                return
        if plan.p_drop > 0 and self.fault_rng.random() < plan.p_drop:
            self.fault_counts["dropped"] += 1
            return
        delay = self.delay_model.sample(self.rng)
        if plan.p_reorder > 0 and self.fault_rng.random() < plan.p_reorder:
            delay += plan.reorder_scale * float(self.fault_rng.pareto(plan.reorder_shape))
            self.fault_counts["reordered"] += 1
        self._enqueue(dst, msg, delay=delay)
        if plan.p_duplicate > 0 and self.fault_rng.random() < plan.p_duplicate:
            dup_delay = self.delay_model.sample(self.fault_rng)
            self._enqueue(dst, msg, delay=dup_delay)
            self.fault_counts["duplicated"] += 1

    def _deliverable(self, dst: str, msg: Message) -> bool:
        if not self._crash_windows or not self.is_crashed(dst):
            return True
        if not isinstance(msg, _TIMER_TYPES):
            self.fault_counts["crash_dropped"] += 1
        return False


def certify_message_conservation(resources, users) -> tuple[bool, list[str]]:
    """Certify load conservation between agents at quiescence.

    With no moves in flight and no unacknowledged retransmissions
    pending, three things must agree for every resource: its incremental
    ``load``, the summed weight of its resident record, and the summed
    weight of the users whose *authoritative* position
    (``user.resource``) names it.  Violations mean a duplicated, replayed
    or lost Join/Leave corrupted somebody's books.  Returns ``(ok,
    issues)``, where ``issues`` is empty iff the books agree.
    """
    issues: list[str] = []
    authoritative: dict[int, dict[str, float]] = {r.index: {} for r in resources}
    for u in users:
        if u.resource not in authoritative:
            issues.append(f"{u.agent_id} claims unknown resource {u.resource}")
            continue
        authoritative[u.resource][u.agent_id] = u.weight
    for r in resources:
        want = authoritative[r.index]
        want_load = sum(want.values())
        if abs(r.load - want_load) > 1e-9:
            issues.append(
                f"resource {r.index}: load {r.load} != resident user weight {want_load}"
            )
        have = set(r.residents)
        missing = set(want) - have
        extra = have - set(want)
        if missing:
            issues.append(
                f"resource {r.index}: residents missing {sorted(missing)}"
            )
        if extra:
            issues.append(
                f"resource {r.index}: phantom residents {sorted(extra)}"
            )
    return (not issues), issues
