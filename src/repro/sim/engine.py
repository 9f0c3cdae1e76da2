"""Round-based simulation engine.

:func:`run` drives one protocol on one instance until it reaches a
satisfying state, provably goes silent (quiescence), or exhausts the round
budget.  The engine is deliberately thin: all algorithmic content lives in
the protocol, all timing in the schedule, all perturbation in the events —
the engine only sequences them and keeps the books.  For the six
sample-then-commit protocols ``Protocol.step`` runs the shared kernel of
:mod:`repro.core.protocols.kernels` on a one-row view of the state, the
same code the lockstep engine (:mod:`repro.sim.batch`) runs over its
replications, so the two engines share the round math and keep their own
round loops.

Termination statuses
--------------------

- ``"satisfying"`` — every user meets its QoS requirement (and no events
  remain).  The strong outcome; ``result.rounds`` is the convergence time.
- ``"quiescent"`` — the protocol reported it can never move again
  (:meth:`~repro.core.protocols.base.Protocol.is_quiescent`), but some
  users are unsatisfied: a stable-but-unsatisfying state (see
  :mod:`repro.core.stability`).  First-class outcome, not an error.
- ``"max_rounds"`` — the budget ran out (oscillating protocols, or budgets
  chosen too small — the caller decides which).

Message accounting
------------------

The tables compare communication cost across protocols uniformly: every
unsatisfied active user contacts one resource per protocol *phase* per
round (sampling protocols have 1 phase, the permit protocol 2).  The
count is an analytic proxy, not a packet trace; the message-passing
simulator (:mod:`repro.msgsim`) provides the latter.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.protocols.base import Protocol
from ..core.state import CACHE_STATS, State
from ..obs import HUB as _OBS
from ..obs.hub import HEARTBEAT_INTERVAL_S, PROGRESS_INTERVAL_S
from .events import Event
from .metrics import Recorder, Trajectory
from .rng import make_rng
from .schedule import Schedule, SynchronousSchedule

__all__ = ["RunResult", "run"]

InitialState = State | str | Callable[[Instance, np.random.Generator], State]


@dataclass
class RunResult:
    """Outcome of one simulation run."""

    status: str
    rounds: int
    total_moves: int
    total_attempts: int
    total_messages: int
    n_satisfied: int
    n_users: int
    n_resources: int
    satisfying_round: int | None
    last_event_round: int | None
    protocol: dict
    schedule: dict
    seed: int | None
    trajectory: Trajectory | None = None
    final_state: State | None = None

    @property
    def converged(self) -> bool:
        """Did the run end for a structural reason (not the budget)?"""
        return self.status in ("satisfying", "quiescent")

    @property
    def satisfied_fraction(self) -> float:
        return self.n_satisfied / self.n_users if self.n_users else 1.0

    @property
    def recovery_rounds(self) -> int | None:
        """Rounds from the last event to the first satisfying state."""
        if self.satisfying_round is None or self.last_event_round is None:
            return None
        return max(0, self.satisfying_round - self.last_event_round)

    def summary(self) -> dict:
        return {
            "status": self.status,
            "rounds": self.rounds,
            "total_moves": self.total_moves,
            "total_attempts": self.total_attempts,
            "total_messages": self.total_messages,
            "n_satisfied": self.n_satisfied,
            "n_users": self.n_users,
            "n_resources": self.n_resources,
            "satisfying_round": self.satisfying_round,
            "satisfied_fraction": self.satisfied_fraction,
            "last_event_round": self.last_event_round,
            "recovery_rounds": self.recovery_rounds,
            "seed": self.seed,
            "protocol": self.protocol,
            "schedule": self.schedule,
        }


def _seed_value(seed) -> int | None:
    """The integer recorded in results for exact replay, or ``None``.

    ``isinstance(seed, int)`` alone silently dropped NumPy integer seeds
    (``np.int64`` is not ``int``), so sweep-generated runs recorded
    ``seed=None`` and could not be replayed.  ``operator.index`` accepts
    every integral type — Python ints, NumPy scalars, anything with
    ``__index__`` — and is exactly the coercion ``default_rng`` applies,
    so the recorded value rebuilds the identical stream.
    """
    if isinstance(seed, np.random.Generator):
        return None
    try:
        return operator.index(seed)
    except TypeError:
        return None


def _build_initial(
    instance: Instance, initial: InitialState, rng: np.random.Generator
) -> State:
    if isinstance(initial, State):
        if initial.instance is not instance:
            raise ValueError("initial state belongs to a different instance")
        return initial.copy()
    if callable(initial):
        return initial(instance, rng)
    if initial == "random":
        return State.uniform_random(instance, rng)
    if initial == "pile":
        return State.worst_case_pile(instance)
    raise ValueError(f"unknown initial state spec: {initial!r}")


def run(
    instance: Instance,
    protocol: Protocol,
    *,
    seed: int | np.random.Generator | None = 0,
    schedule: Schedule | None = None,
    max_rounds: int = 100_000,
    initial: InitialState = "random",
    recorder: Recorder | None = None,
    events: Sequence[Event] = (),
    keep_state: bool = False,
) -> RunResult:
    """Simulate ``protocol`` on ``instance`` until convergence or budget.

    Parameters
    ----------
    seed:
        Integer seed or an existing generator.  Integer seeds are recorded
        in the result for exact replay.
    schedule:
        Activation schedule; synchronous by default.
    initial:
        ``"random"`` (default), ``"pile"``, an explicit :class:`State`, or
        a callable ``(instance, rng) -> State``.
    recorder:
        Optional :class:`~repro.sim.metrics.Recorder`; when given, the
        result carries the full per-round trajectory.
    events:
        Failure/churn events, applied at their round boundaries in order.
    keep_state:
        Attach the final :class:`State` to the result (off by default —
        replicated sweeps keep results small).
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    rng = make_rng(seed)
    seed_value = _seed_value(seed)
    schedule = schedule if schedule is not None else SynchronousSchedule()

    for e in events:
        if not isinstance(e, Event):
            raise TypeError(f"expected Event, got {type(e)!r}")
    pending = sorted(events, key=lambda e: e.round_index)

    state = _build_initial(instance, initial, rng)
    protocol.reset(instance, rng)
    schedule.reset(instance.n_users, rng)

    total_moves = 0
    total_attempts = 0
    total_messages = 0
    phases = int(getattr(protocol, "phases", 1))
    satisfying_round: int | None = None
    last_event_round: int | None = None
    quiescence_dirty = True
    status = "max_rounds"
    rounds_executed = 0
    event_idx = 0
    cache_hits0, cache_misses0 = CACHE_STATS.hits, CACHE_STATS.misses
    # Span objects are hoisted out of the loop and reused (sequential
    # re-entry is safe); per-round allocation would eat the overhead budget.
    round_span = _OBS.span("engine.round")
    step_span = _OBS.span("engine.protocol-step")

    with _OBS.span("engine.run"):
        for round_index in range(max_rounds + 1):
            # -- events due at this boundary --------------------------------
            applied_event = False
            while event_idx < len(pending) and pending[event_idx].round_index <= round_index:
                ev = pending[event_idx]
                instance, state = ev.apply(instance, state, rng)
                protocol.reset(instance, rng)
                last_event_round = round_index
                satisfying_round = None  # re-converge after perturbation
                applied_event = True
                event_idx += 1
            if applied_event:
                quiescence_dirty = True

            with round_span:
                sat_mask = state.satisfied_mask()
                all_satisfied = bool(np.all(sat_mask))
                if all_satisfied and satisfying_round is None:
                    satisfying_round = round_index
                if all_satisfied and event_idx >= len(pending):
                    status = "satisfying"
                    break
                if round_index == max_rounds:
                    break  # budget exhausted; status stays "max_rounds"

                active = schedule.active_mask(round_index, instance.n_users, rng)
                n_unsat_active = int(np.count_nonzero(active & ~sat_mask))

                with step_span:
                    outcome = protocol.step(state, active, rng)
                rounds_executed = round_index + 1
                total_moves += outcome.n_moved
                total_attempts += outcome.n_attempted
                total_messages += n_unsat_active * phases

                if recorder is not None:
                    recorder.record(round_index, state, outcome.n_moved, outcome.n_attempted)

                if _OBS.active:
                    if _OBS.tick("round"):
                        _OBS.event(
                            "round",
                            {
                                "round": round_index,
                                "moved": outcome.n_moved,
                                "attempted": outcome.n_attempted,
                                "messages": n_unsat_active * phases,
                                "unsatisfied": state.n_unsatisfied,
                            },
                        )
                    # Liveness for the sweep coordinator: wall-clock
                    # throttled, unaffected by round-event sampling, and
                    # guaranteed at least once per enabled run.
                    if _OBS.every("cell.heartbeat", HEARTBEAT_INTERVAL_S):
                        _OBS.event(
                            "cell.heartbeat",
                            {
                                "round": round_index,
                                "unsatisfied": int(state.n_unsatisfied),
                            },
                        )
                    if _OBS.every("cell.progress", PROGRESS_INTERVAL_S):
                        _OBS.event(
                            "cell.progress",
                            {
                                "round": round_index,
                                "max_rounds": max_rounds,
                                "unsatisfied": int(state.n_unsatisfied),
                                "n_users": instance.n_users,
                                "moves": total_moves,
                                "messages": total_messages,
                            },
                        )

                # -- quiescence ---------------------------------------------
                if outcome.n_moved > 0:
                    quiescence_dirty = True
                elif outcome.n_attempted == 0 and quiescence_dirty and event_idx >= len(pending):
                    verdict = protocol.is_quiescent(state)
                    if verdict:
                        status = "quiescent"
                        rounds_executed = round_index + 1
                        break
                    if verdict is False:
                        # State unchanged during idle rounds; skip re-checks
                        # until something moves again.
                        quiescence_dirty = False

    if _OBS.active:
        _OBS.count("engine.runs")
        _OBS.count("engine.rounds", rounds_executed)
        _OBS.count("engine.moves", total_moves)
        _OBS.count("engine.attempts", total_attempts)
        _OBS.count("engine.messages", total_messages)
        _OBS.count("state.cache_hits", CACHE_STATS.hits - cache_hits0)
        _OBS.count("state.cache_misses", CACHE_STATS.misses - cache_misses0)
        _OBS.event(
            "run",
            {
                "status": status,
                "rounds": rounds_executed,
                "moves": total_moves,
                "messages": total_messages,
                "n_users": instance.n_users,
                "n_resources": instance.n_resources,
                "protocol": protocol.describe(),
                "seed": seed_value,
            },
        )

    return RunResult(
        status=status,
        rounds=(
            rounds_executed
            if status != "satisfying"
            # Explicit None check: round 0 is a legitimate satisfying round
            # and must not fall through a truthiness test.
            else (satisfying_round if satisfying_round is not None else 0)
        ),
        total_moves=total_moves,
        total_attempts=total_attempts,
        total_messages=total_messages,
        n_satisfied=state.n_satisfied,
        n_users=instance.n_users,
        n_resources=instance.n_resources,
        satisfying_round=satisfying_round,
        last_event_round=last_event_round,
        protocol=protocol.describe(),
        schedule=schedule.describe(),
        seed=seed_value,
        trajectory=recorder.finalize() if recorder is not None else None,
        final_state=state if keep_state else None,
    )
