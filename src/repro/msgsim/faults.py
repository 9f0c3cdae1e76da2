"""Fault injection for the message simulator: the network that lies.

Without a plan the :class:`~repro.msgsim.network.Network` is a perfect
transport — every message is delivered exactly once.  Real distributed
executions (the setting the paper's dynamics are meant for) get no such
guarantee, so this module provides the adversary and the audit:

- :class:`FaultPlan` — a declarative, seeded description of what goes
  wrong on the channels: i.i.d. per-transmission message **drop** and
  **duplication**, and heavy-tailed extra **reordering delays**.
  ``Network(plan=...)`` executes it; fault decisions draw from a
  **dedicated RNG stream** (``plan.seed`` + run seed), never from the
  delay stream, so a null plan is bit-for-bit identical to no plan:
  same delays, same delivery order, same trajectory.
- :func:`certify_message_conservation` — a naive auditor: at
  quiescence, every resource's load must equal the summed weight of the
  users that authoritatively reside on it, and the resource's resident
  set must agree with the users' own records.  Under drops, duplication
  and replays this holds *only* if the protocol hardening (sequence
  numbers, acks, retransmission — see :mod:`repro.msgsim.agents`) is
  correct, which is exactly why it is checked.

Everything is deterministic given ``(plan, seeds)``; the fault counters
(``Network.fault_counts``) are surfaced through
:class:`~repro.msgsim.runner.MessageSimResult`.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["FaultPlan", "certify_message_conservation"]


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of an unreliable execution environment.

    ``p_drop``/``p_duplicate``/``p_reorder`` apply independently to every
    channel transmission (never to self-addressed timers).  A reorder
    event adds a Pareto-tailed extra delay of
    ``reorder_scale * Pareto(reorder_shape)`` time units, so a small
    fraction of messages arrives *much* later — the classic cause of
    stale-reply and replayed-move bugs.  ``seed`` feeds the dedicated fault RNG
    (combined with the run seed), keeping fault decisions independent of
    the delay stream.
    """

    p_drop: float = 0.0
    p_duplicate: float = 0.0
    p_reorder: float = 0.0
    reorder_shape: float = 1.5
    reorder_scale: float = 0.5
    seed: int = 0

    def __post_init__(self):
        for name in ("p_drop", "p_duplicate", "p_reorder"):
            p = getattr(self, name)
            if not (0.0 <= p <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        if self.reorder_shape <= 0 or self.reorder_scale < 0:
            raise ValueError("reorder_shape must be > 0 and reorder_scale >= 0")

    def is_active(self) -> bool:
        """Whether this plan injects any fault at all (a null plan is a no-op)."""
        return self.p_drop > 0 or self.p_duplicate > 0 or self.p_reorder > 0


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
