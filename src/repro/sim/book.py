"""The round book: termination, accounting and telemetry of a round loop.

:func:`~repro.sim.engine.run` (one row) and the lockstep engine of
:mod:`repro.sim.batch` (``A`` live replication rows) keep their own round
math and call one :class:`RoundBook` for what they report: each row's
first satisfying round, status (see :mod:`repro.sim.engine`) and totals,
the telemetry (events, ``engine.*`` counters, spans) and the
per-replication :class:`RunResult`.

Per-row values are Python scalars in the scalar loop and arrays over the
live rows in the lockstep loop.  The per-round calls are in-place sums
and comparisons valid for both, so ``run()`` pays Python-int cost, not
NumPy call overhead; a row that ends has its result written and is
dropped from the live rows, as the lockstep engine compacts its arrays.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from ..core.state import CACHE_STATS, State
from ..obs import HUB
from ..obs.hub import HEARTBEAT_INTERVAL_S, PROGRESS_INTERVAL_S
from .metrics import Trajectory

__all__ = ["RoundBook", "RunResult"]


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


def _any(flags) -> bool:
    """Is any live row's flag set?"""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else bool(flags)


def _total(values) -> int:
    """Sum of a per-row value over the live rows."""
    return int(values.sum()) if isinstance(values, np.ndarray) else int(values)


def _flags(like, ks: list) -> bool | np.ndarray:
    """Per-row flags shaped like ``like`` (one flag for one row), set at
    the live positions ``ks``."""
    if not isinstance(like, np.ndarray):
        return bool(ks)
    flags = np.zeros(like.size, dtype=bool)
    flags[ks] = True
    return flags


class RoundBook:
    """Termination, accounting and telemetry for one round loop.

    Use as a context manager around the loop (it brackets the
    ``engine.run`` span).  Each round the loop calls :meth:`start` with
    the round-start unsatisfied counts and, if any row goes on,
    :meth:`step` with what the round did; both return ``None`` while every
    live row goes on, else the keep mask over the live rows (the rows that
    ended are already written to :attr:`results`).  :meth:`reset` marks an
    event boundary.  :attr:`rows` maps live positions to replication ids.
    """

    def __init__(self, instance, protocol, schedule, seeds: list, max_rounds: int):
        self.protocol = protocol
        self.schedule = schedule
        self.phases = int(getattr(protocol, "phases", 1))
        self.max_rounds = max_rounds
        self.n_users, self.n_resources = instance.n_users, instance.n_resources
        self.seeds = [_seed_value(s) for s in seeds]
        self.results: list[RunResult | None] = [None] * len(seeds)
        self.rows = np.arange(len(seeds), dtype=np.int64)
        self.live = len(seeds)
        self.last_event_round: int | None = None
        self.executed = 0  # every live row has executed the same rounds
        # Per-row values; Python scalars broadcast to the lockstep loop's
        # arrays on first use.
        self.moves = self.attempts = self.contacts = self.unsat = 0
        self.sat_round = -1  # -1: not satisfied since the start or last event
        self.dirty = True

    def __enter__(self) -> "RoundBook":
        self._cache0 = CACHE_STATS.hits, CACHE_STATS.misses
        # Hoisted and reused: per-round span allocation would eat the
        # overhead budget.
        self._run_span = HUB.span("engine.run")
        self._round_span = HUB.span("engine.round")
        self._in_round = False
        self._run_span.__enter__()
        return self

    def __exit__(self, *exc) -> bool:
        if self._in_round:
            self._round_span.__exit__()
        self._run_span.__exit__()
        if HUB.active:
            HUB.count("state.cache_hits", CACHE_STATS.hits - self._cache0[0])
            HUB.count("state.cache_misses", CACHE_STATS.misses - self._cache0[1])
        return False

    def reset(self, r: int, instance) -> None:
        """An event fired at boundary ``r``: every row re-converges on
        ``instance``."""
        self.last_event_round = r
        self.n_users, self.n_resources = instance.n_users, instance.n_resources
        self.sat_round = -1
        self.dirty = True

    def start(self, r: int, unsat, pending: bool):
        """Round ``r`` begins with ``unsat`` unsatisfied users per live row.

        Records first satisfying rounds; ends the satisfied rows unless
        events are ``pending`` (a satisfied row keeps executing, and
        drawing, until the last event has fired), then every row once the
        budget is spent.
        """
        self._round_span.__enter__()
        self._in_round = True
        self.unsat = unsat
        if HUB.active:
            self._liveness(r)
        A = self.live
        sat = unsat == 0
        keep = None
        if _any(sat):
            # sat_round is -1 where newly satisfied: -1 + (r + 1) = r
            self.sat_round += (sat & (self.sat_round < 0)) * (r + 1)
            if not pending:
                keep = self._close(sat, "satisfying")
        if r == self.max_rounds and self.live:
            self._close(True, "max_rounds")
            keep = np.zeros(A, dtype=bool)
        if not self.live:
            self._round_span.__exit__()
            self._in_round = False
        return keep

    def step(self, r: int, moved, attempted, contacts, pending: bool, quiescent):
        """Round ``r`` executed: ``moved``/``attempted`` migrations and
        ``contacts`` unsatisfied-active users per live row.

        On idle rows whose state changed since their last check (and with
        no events pending), ``quiescent(k)`` is live row ``k``'s
        ``is_quiescent`` verdict: ``True`` ends the row, ``False`` skips
        re-checks until it moves again.
        """
        self.executed = r + 1
        self.moves += moved
        self.attempts += attempted
        self.contacts += contacts
        if HUB.active and HUB.tick("round"):
            HUB.event(
                "round",
                {
                    "round": r,
                    "moved": _total(moved),
                    "attempted": _total(attempted),
                    "messages": _total(contacts) * self.phases,
                    "unsatisfied": _total(self.unsat),
                },
            )
        self.dirty |= moved > 0
        keep = None
        if not pending:
            check = (attempted == 0) & self.dirty
            if _any(check):
                verdicts = {k: quiescent(k) for k in np.flatnonzero(check).tolist()}
                # checked rows are dirty, so xor clears exactly the False ones
                self.dirty ^= _flags(check, [k for k, v in verdicts.items() if v is False])
                quiet = [k for k, v in verdicts.items() if v]
                if quiet:
                    keep = self._close(_flags(check, quiet), "quiescent")
        self._round_span.__exit__()
        self._in_round = False
        return keep

    def _close(self, gone, status: str) -> np.ndarray:
        """Write the live rows ``gone`` flags into their results as ending
        with ``status`` and drop them; returns the keep mask."""
        A = self.live
        gone = np.broadcast_to(gone, (A,))
        values = {
            name: np.broadcast_to(getattr(self, name), (A,))
            for name in ("moves", "attempts", "contacts", "unsat", "sat_round", "dirty")
        }
        protocol, schedule = self.protocol.describe(), self.schedule.describe()
        ended = []
        for k in np.flatnonzero(gone).tolist():
            sat_round = int(values["sat_round"][k])
            result = RunResult(
                status=status,
                rounds=sat_round if status == "satisfying" else self.executed,
                total_moves=int(values["moves"][k]),
                total_attempts=int(values["attempts"][k]),
                total_messages=int(values["contacts"][k]) * self.phases,
                n_satisfied=self.n_users - int(values["unsat"][k]),
                n_users=self.n_users,
                n_resources=self.n_resources,
                satisfying_round=None if sat_round < 0 else sat_round,
                last_event_round=self.last_event_round,
                protocol=protocol,
                schedule=schedule,
                seed=self.seeds[self.rows[k]],
            )
            self.results[self.rows[k]] = result
            ended.append(result)
        if HUB.active:
            self._report(ended)
        keep = ~gone
        self.rows = self.rows[keep]
        self.live = self.rows.size
        for name, value in values.items():
            setattr(self, name, value[keep])
        return keep

    def _liveness(self, r: int) -> None:
        """Wall-clock throttled liveness for the sweep coordinator:
        unaffected by round-event sampling, and at least once per enabled
        run."""
        if HUB.every("cell.heartbeat", HEARTBEAT_INTERVAL_S):
            HUB.event(
                "cell.heartbeat",
                {"round": r, "unsatisfied": _total(self.unsat), "live": self.live},
            )
        if HUB.every("cell.progress", PROGRESS_INTERVAL_S):
            ended = [res for res in self.results if res is not None]
            HUB.event(
                "cell.progress",
                {
                    "round": r,
                    "max_rounds": self.max_rounds,
                    "unsatisfied": _total(self.unsat),
                    "n_users": self.n_users,
                    "moves": _total(self.moves) + sum(res.total_moves for res in ended),
                    "messages": _total(self.contacts) * self.phases
                    + sum(res.total_messages for res in ended),
                    "live": self.live,
                    "reps": len(self.results),
                },
            )

    def _report(self, ended: list[RunResult]) -> None:
        """``engine.*`` counters and one ``run`` event per ended row."""
        HUB.count("engine.runs", len(ended))
        for res in ended:
            HUB.count("engine.rounds", res.rounds)
            HUB.count("engine.moves", res.total_moves)
            HUB.count("engine.attempts", res.total_attempts)
            HUB.count("engine.messages", res.total_messages)
            HUB.event(
                "run",
                {
                    "status": res.status,
                    "rounds": res.rounds,
                    "moves": res.total_moves,
                    "messages": res.total_messages,
                    "n_users": res.n_users,
                    "n_resources": res.n_resources,
                    "protocol": res.protocol,
                    "seed": res.seed,
                },
            )
