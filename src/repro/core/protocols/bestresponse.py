"""Sequential best-response dynamics — the game-theoretic baseline.

In the satisfaction game a user's utility is the indicator of meeting its
QoS requirement, so a *best response* of an unsatisfied user is any move to
an accessible resource where it would be satisfied; satisfied users'
best response is to stay.

Two move notions matter (see :mod:`repro.core.stability`):

- **polite** (``polite=True``, default): the move must additionally keep
  every currently satisfied resident of the target satisfied.  Polite
  sequential best response is monotone — each move satisfies the mover,
  breaks nobody, and can only relieve the departed resource — so the
  satisfied count strictly increases per move and a polite-stable state
  is reached after at most ``n`` moves.  This bound is asserted in
  the tests.
- **selfish** (``polite=False``): the mover checks only itself.  Its
  arrival can dissatisfy tight residents of the target, so the satisfied
  count is *not* monotone and termination is only guaranteed by the
  engine's round budget (the dynamics are still useful as the classic
  "myopic agent" baseline and stop at selfish-stable states when they hit
  one).

Two scheduling variants:

- :class:`BestResponseProtocol` — one uniformly random improvable user
  moves per engine round (the "rounds" column is then the move count).
- :class:`SweepBestResponse` — each engine round performs a Gauss–Seidel
  sweep over all users in a fresh random order, applying each improving
  move immediately.  Rounds are sweeps; moves are counted separately.

Both apply their moves in :meth:`~repro.core.protocols.base.Protocol.step`
through :meth:`State.move_user <repro.core.state.State.move_user>`, one
user at a time.  Polite best response and both sweeps keep a
:class:`ResidentBook` in step with those moves: each resource's latency
and its residents' thresholds, sorted, so the polite bound
``satisfied_resident_min(state)[r]`` is a bisect at ``ell_r(x_r)`` and a
move updates only the two resources it touches.  Without it every
one-user move bumps the state's generation and the next query rebuilds
the O(n) resident minimum.  The book rebuilds from the state whenever
the state's generation (:attr:`State.version
<repro.core.state.State.version>`) or identity differs from the one it
last saw — events, resets and any mutation made outside the protocol —
so it never serves a stale bound.  Selfish best response needs no bound
and moves without a book.

Both are *sequential*: they require a global scheduler serialising moves,
which is exactly what a distributed protocol cannot assume — they appear in
the tables as the coordination upper bound.
"""

from __future__ import annotations

from bisect import bisect_left, insort

import numpy as np

from ..memory import csr_offsets
from ..stability import is_stable, satisfied_resident_min
from ..state import State
from .base import Protocol, StepOutcome

__all__ = ["BestResponseProtocol", "ResidentBook", "SweepBestResponse"]


class ResidentBook:
    """Per-resource latencies and sorted resident thresholds of one state.

    :meth:`sync` binds the book to a state, rebuilding it unless it already
    reflects that state's current generation; :meth:`move` applies one
    user's move to the state and updates the two resources it touches.
    ``res_min`` then always equals ``satisfied_resident_min(state)`` and
    ``lat`` equals ``state.resource_latencies()``.
    """

    __slots__ = ("state", "version", "residents", "lat", "res_min")

    def __init__(self):
        self.state: State | None = None
        self.version = -1

    def sync(self, state: State) -> "ResidentBook":
        """Bind to ``state``, rebuilding if it changed outside the book."""
        if state is self.state and state.version == self.version:
            return self
        inst = state.instance
        q = inst.thresholds
        # Residents grouped by resource, each group sorted by threshold.
        flat = q[np.lexsort((q, state.assignment))].tolist()
        counts = np.bincount(state.assignment, minlength=inst.n_resources)
        edges = csr_offsets(counts).tolist()
        self.residents = [flat[a:b] for a, b in zip(edges[:-1], edges[1:])]
        self.lat = np.array(state.resource_latencies())
        self.res_min = np.array(satisfied_resident_min(state))
        self.state, self.version = state, state.version
        return self

    def move(self, user: int, target: int) -> None:
        """Move ``user`` to ``target`` (another resource) in the bound state."""
        state = self.state
        inst = state.instance
        source = int(state.assignment[user])
        state.move_user(user, target)
        q = float(inst.thresholds[user])
        left = self.residents[source]
        del left[bisect_left(left, q)]
        insort(self.residents[target], q)
        touched = np.asarray([source, target])
        lat = inst.latencies.evaluate_at(touched, state.loads[touched])
        self.lat[touched] = lat
        # A resident is satisfied iff its threshold is at least ell_r(x_r):
        # the smallest such threshold is the first at or after the bisect.
        for r, ell in zip((source, target), lat.tolist()):
            rq = self.residents[r]
            i = bisect_left(rq, ell)
            self.res_min[r] = rq[i] if i < len(rq) else np.inf
        self.version = state.version


def _best_target(
    state: State,
    user: int,
    rng: np.random.Generator,
    greedy: bool,
    res_min: np.ndarray | None,
) -> int | None:
    """A resource other than the user's own that would satisfy ``user``,
    conservatively counting its own arrival, or ``None``.

    With ``res_min`` (the polite bound, ``satisfied_resident_min(state)``)
    the arrival must also spare the target's satisfied residents.  Picks
    the minimum-latency (max-headroom) candidate when ``greedy``, else a
    uniform one.
    """
    inst = state.instance
    own = state.assignment[user]
    w = inst.weights[user]
    if inst.access is None:
        # Every resource is allowed: one pass over the profile, no gathers.
        lat = inst.latencies.evaluate(state.loads + w)
        cap = res_min
    else:
        allowed = inst.access.allowed(user)
        lat = inst.latencies.evaluate_at(allowed, state.loads[allowed] + w)
        cap = None if res_min is None else res_min[allowed]
    ok = lat <= inst.thresholds[user]
    if cap is not None:
        ok &= lat <= cap
    if inst.access is None:
        ok[own] = False
    else:
        ok &= allowed != own
    picks = ok.nonzero()[0]
    if picks.size == 0:
        return None
    if greedy:
        pick = picks[lat[picks].argmin()]
    else:
        pick = picks[rng.integers(0, picks.size)]
    return int(pick if inst.access is None else allowed[pick])


class BestResponseProtocol(Protocol):
    """One random improvable user per round moves to a satisfying resource.

    ``greedy=True`` picks the minimum-latency satisfying target (max
    headroom); ``False`` picks uniformly among satisfying targets.
    """

    sequential = True

    def __init__(self, greedy: bool = True, polite: bool = True):
        self.greedy = bool(greedy)
        self.polite = bool(polite)
        self.name = "best-response" + ("-polite" if polite else "-selfish")
        self._book = ResidentBook()

    def _pick(self, state, active, rng) -> tuple[int, int] | None:
        """The first user, in a random scan of the unsatisfied active ones,
        with a satisfying move, and its target."""
        unsat = np.nonzero(active & ~state.satisfied_mask())[0]
        if unsat.size == 0:
            return None
        res_min = self._book.sync(state).res_min if self.polite else None
        # The first user tried is usually improvable: iterate lazily
        # instead of converting the whole permutation.
        for u in rng.permutation(unsat):
            target = _best_target(state, int(u), rng, self.greedy, res_min)
            if target is not None:
                return int(u), target
        return None

    def step(self, state, active, rng) -> StepOutcome:
        pick = self._pick(state, active, rng)
        if pick is None:
            return StepOutcome(n_attempted=0, n_moved=0)
        user, target = pick
        if self.polite:
            self._book.move(user, target)
        else:
            state.move_user(user, target)
        return StepOutcome(n_attempted=1, n_moved=1)

    def is_quiescent(self, state):
        return is_stable(state, polite=self.polite)

    def describe(self):
        d = super().describe()
        d.update(greedy=self.greedy, polite=self.polite)
        return d


class SweepBestResponse(Protocol):
    """Gauss–Seidel sweep: every user best-responds in random order.

    Moves are applied immediately inside the sweep, one user at a time,
    instead of simultaneously at the end of the round.
    """

    sequential = True

    def __init__(self, greedy: bool = True, polite: bool = True):
        self.greedy = bool(greedy)
        self.polite = bool(polite)
        self.name = "sweep-best-response" + ("-polite" if polite else "-selfish")
        self._book = ResidentBook()

    def step(self, state, active, rng) -> StepOutcome:
        n_moved = 0
        order = rng.permutation(np.nonzero(active)[0])
        book = self._book.sync(state)
        # The book's arrays are updated in place by every applied move.
        lat, res_min = book.lat, (book.res_min if self.polite else None)
        q = state.instance.thresholds
        asg = state.assignment
        for u in order.tolist():
            # Check satisfaction against the *current* loads: earlier moves
            # in this sweep may have changed this user's situation.
            if lat[asg[u]] <= q[u]:
                continue
            target = _best_target(state, u, rng, self.greedy, res_min)
            if target is not None:
                book.move(u, target)
                n_moved += 1
        return StepOutcome(n_attempted=n_moved, n_moved=n_moved)

    def is_quiescent(self, state):
        return is_stable(state, polite=self.polite)

    def describe(self):
        d = super().describe()
        d.update(greedy=self.greedy, polite=self.polite)
        return d
