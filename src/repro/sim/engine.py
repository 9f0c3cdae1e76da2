"""Round-based simulation engine.

:func:`run` drives one protocol on one instance until it reaches a
satisfying state, provably goes silent (quiescence), or exhausts the round
budget.  The engine is deliberately thin: all algorithmic content lives in
the protocol, all timing in the schedule, all perturbation in the events,
and termination, accounting and telemetry in the round book
(:class:`~repro.sim.book.RoundBook`) — the engine only sequences them.
For the six sample-then-commit protocols ``Protocol.step`` runs the shared
kernel of :mod:`repro.core.protocols.kernels` on a one-row view of the
state, the same code the lockstep engine (:mod:`repro.sim.batch`) runs
over its replications, so the two engines share the round math and the
round book and keep their own round loops.

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

from typing import Callable, Sequence

import numpy as np

from ..core.instance import Instance
from ..core.protocols.base import Protocol
from ..core.state import State
from .book import RoundBook, RunResult
from .events import Event
from .metrics import Recorder
from .rng import make_rng
from .schedule import Schedule, SynchronousSchedule

__all__ = ["RunResult", "run"]

InitialState = State | str | Callable[[Instance, np.random.Generator], State]


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
    schedule = schedule if schedule is not None else SynchronousSchedule()

    for e in events:
        if not isinstance(e, Event):
            raise TypeError(f"expected Event, got {type(e)!r}")
    pending = sorted(events, key=lambda e: e.round_index)

    state = _build_initial(instance, initial, rng)
    protocol.reset(instance, rng)
    schedule.reset(instance.n_users, rng)
    event_idx = 0

    def quiescent(_row: int) -> bool | None:
        return protocol.is_quiescent(state)

    with RoundBook(instance, protocol, schedule, [seed], max_rounds) as book:
        for round_index in range(max_rounds + 1):
            while event_idx < len(pending) and pending[event_idx].round_index <= round_index:
                instance, state = pending[event_idx].apply(instance, state, rng)
                protocol.reset(instance, rng)
                book.reset(round_index, instance)
                event_idx += 1
            has_pending = event_idx < len(pending)

            sat_mask = state.satisfied_mask()
            n_unsat = instance.n_users - int(np.count_nonzero(sat_mask))
            if book.start(round_index, n_unsat, has_pending) is not None:
                break
            active = schedule.active_mask(round_index, instance.n_users, rng)
            n_unsat_active = int(np.count_nonzero(active & ~sat_mask))
            outcome = protocol.step(state, active, rng)
            moved, attempted = outcome.n_moved, outcome.n_attempted
            if recorder is not None:
                recorder.record(round_index, state, moved, attempted)
            if book.step(round_index, moved, attempted, n_unsat_active, has_pending, quiescent) is not None:
                break

    [result] = book.results
    result.trajectory = recorder.finalize() if recorder is not None else None
    result.final_state = state if keep_state else None
    return result
