"""Stable states: the solution concept when full satisfaction is blocked.

With heterogeneous thresholds, dynamics in which only *unsatisfied* users
move can get stuck even on feasible instances.  Minimal example (identical
machines, ``m = 2``): one user ``u`` with ``q_u = 2`` and six users with
``q = 10``.  The state with ``u`` plus three big users on resource 0 and
three big users on resource 1 is *stable*: ``u`` is unsatisfied (load 4 >
2) but both resources would have load >= 4 after its arrival, so no
unilateral move helps — yet the satisfying state (six big users together,
``u`` alone) exists.  Reaching it would require *satisfied* users to move,
which threshold-satisfaction utilities give them no reason to do.

The library therefore treats **stability** — no unsatisfied user has any
accessible resource on which it would be satisfied (conservatively, as the
only arrival) — as the honest convergence criterion, and *satisfying* as
the strong outcome.  Stable states are exactly the Nash equilibria of the
satisfaction game in which a user's utility is the indicator of being
satisfied (ties broken toward not moving).

Two flavours of "move" appear in the protocols, hence two stability
notions:

- **selfish** (default): user ``u`` may move to ``r`` iff
  ``ell_r(x_r + w_u) <= q_u`` — the mover checks only itself.  Its arrival
  may dissatisfy tight residents of ``r``.
- **polite**: additionally ``ell_r(x_r + w_u)`` must not exceed the
  smallest threshold among ``r``'s currently *satisfied* residents, so the
  move never breaks anyone.  Polite moves strictly increase the number of
  satisfied users, which is the monotonicity the permit protocol and the
  polite best-response baseline rely on (at most ``n`` moves to polite
  stability).  Every selfish-stable state is polite-stable; not conversely.

A useful, provable no-deadlock condition for identical machines with unit
weights (tested in the suite):

    A user with threshold ``q`` can only be blocked (selfishly) while
    unsatisfied if every other resource has load at least ``floor(q)`` and
    its own at least ``floor(q) + 1``, which forces
    ``n >= m*floor(q) + 1``.  Hence a user with ``m*floor(q_u) >= n``
    always finds room, and instances whose minimum threshold satisfies
    ``m*floor(q_min) >= n`` admit no selfish-stable unsatisfying state at
    all — on such *generous* instances the protocols converge to full
    satisfaction from every initial state.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .instance import Instance
from .memory import iter_chunks
from .state import State

if TYPE_CHECKING:
    from .protocols.neighborhood import ResourceGraph

__all__ = [
    "satisfied_resident_min",
    "blocked_mask",
    "best_alternative_latency",
    "improvable_users",
    "is_stable",
    "is_generous",
    "deadlock_free_users",
]


def _compute_satisfied_resident_min(state: State) -> np.ndarray:
    inst = state.instance
    out = np.full(inst.n_resources, np.inf)
    sat = state.satisfied_mask()
    if np.any(sat):
        np.minimum.at(out, state.assignment[sat], inst.thresholds[sat])
    out.setflags(write=False)
    return out


def satisfied_resident_min(state: State) -> np.ndarray:
    """Per-resource minimum threshold among currently satisfied residents.

    ``+inf`` for resources with no satisfied resident — the bound a polite
    arrival must not exceed.  Memoized on the state's generation counter
    (read-only result): polite sweeps query it once per user between moves,
    which was an O(n^2)-per-sweep hot spot.
    """
    return state.cached("satisfied_resident_min", _compute_satisfied_resident_min)


def blocked_mask(state: State, *, polite: bool = False) -> np.ndarray:
    """Per-user mask: unsatisfied *and* no accessible satisfying move exists.

    The check mirrors the protocols' conservative arrival test: user ``u``
    can improve iff some accessible resource ``r != A(u)`` has
    ``ell_r(x_r + w_u) <= q_u`` (and, when ``polite``, also
    ``<= satisfied_resident_min(r)``).  Satisfied users are never blocked
    (the mask is False for them).

    Memoized per stability flavour on the state's generation counter
    (read-only result): quiescence checks and stability-censused sweeps
    call it repeatedly between moves.
    """
    key = "blocked_mask/polite" if polite else "blocked_mask/selfish"

    def compute(s: State) -> np.ndarray:
        mask = _compute_blocked_mask(s, polite)
        mask.setflags(write=False)
        return mask

    return state.cached(key, compute)


def _compute_blocked_mask(state: State, polite: bool) -> np.ndarray:
    inst = state.instance
    blocked = np.zeros(inst.n_users, dtype=bool)
    users = np.nonzero(~state.satisfied_mask())[0]
    if users.size == 0:
        return blocked
    cap = satisfied_resident_min(state) if polite else None
    best = best_alternative_latency(state, users, cap=cap)
    blocked[users] = best > inst.thresholds[users]
    return blocked


def best_alternative_latency(
    state: State,
    users: np.ndarray,
    *,
    cap: np.ndarray | None = None,
    graph: ResourceGraph | None = None,
) -> np.ndarray:
    """Per listed user, the least arrival latency over its admissible moves.

    ``best[i] = min ell_r(x_r + w_u)`` over the resources ``r != A(u)`` that
    ``u = users[i]`` may move to: its accessible resources, or, with a
    resource ``graph``, the accessible neighbours of ``A(u)``.  With
    ``cap``, a candidate whose arrival latency exceeds ``cap[r]`` does not
    count (the polite bound, ``cap = satisfied_resident_min(state)``).
    ``+inf`` where no candidate is left.  The one copy of the admissible-move
    rule: stability, the selfish Nash check and the neighbourhood check
    each compare its answer against their own bound.
    """
    inst = state.instance
    users = np.asarray(users, dtype=np.int64)
    best = np.full(users.size, np.inf)
    # Complete access: per weight, the two smallest latencies serve every user.
    if graph is None and inst.access is None:
        weights = inst.weights[users]
        for w in np.unique(weights):
            lat = inst.latencies.evaluate(state.loads + float(w))
            if cap is not None:
                lat = np.where(lat <= cap, lat, np.inf)
            if lat.size == 1:
                continue
            grp = np.nonzero(weights == w)[0]
            global_min, second = np.partition(lat, 1)[:2]
            # The best r != own: the global min unless only own attains it.
            own_lat = lat[state.assignment[users[grp]]]
            best[grp] = np.where(own_lat > global_min, global_min, second)
        return best

    # Otherwise: one chunked pass over the flat CSR candidate lists.
    if graph is None:
        offsets, targets = inst.access.offsets, inst.access.choices
    else:
        offsets, targets = graph.offsets, graph.neighbors
    for cs, ce in iter_chunks(users.size):
        chunk = users[cs:ce]
        own = state.assignment[chunk]
        rows = chunk if graph is None else own
        lo = offsets[rows]
        span = offsets[rows + 1] - lo
        total = int(span.sum())
        # One entry per (user, candidate) pair, grouped by user.
        starts = np.cumsum(span) - span
        within = np.arange(total, dtype=np.int64) - np.repeat(starts, span)
        cand = targets[np.repeat(lo, span) + within]
        user_rep = np.repeat(chunk, span)
        ok = cand != np.repeat(own, span)
        if graph is not None and inst.access is not None:
            ok &= inst.access.contains(user_rep, cand)
        r, u = cand[ok], user_rep[ok]
        arrival = inst.latencies.evaluate_at(r, state.loads[r] + inst.weights[u])
        if cap is not None:
            arrival = np.where(arrival <= cap[r], arrival, np.inf)
        lat = np.full(total, np.inf)
        lat[ok] = arrival
        has = span > 0
        best[cs:ce][has] = np.fmin.reduceat(lat, starts[has])
    return best


def improvable_users(state: State, *, polite: bool = False) -> np.ndarray:
    """Unsatisfied users that do have a satisfying move available."""
    unsat = ~state.satisfied_mask()
    return np.nonzero(unsat & ~blocked_mask(state, polite=polite))[0]


def is_stable(state: State, *, polite: bool = False) -> bool:
    """True iff no unsatisfied user has a unilaterally satisfying move.

    ``polite=True`` restricts to moves that do not dissatisfy satisfied
    residents of the target.  Satisfying states are trivially stable.
    """
    return improvable_users(state, polite=polite).size == 0


def deadlock_free_users(instance: Instance) -> np.ndarray:
    """Mask of users that can never be blocked (identical machines, unit w).

    A user with ``m * floor(q_u) >= n`` always finds room: selfish
    blocking requires every resource to carry load at least ``floor(q_u)``
    (its own at least ``floor(q_u) + 1``), i.e. ``n >= m*floor(q_u) + 1``.
    """
    if not (instance.identical_resources and instance.unit_weights):
        raise NotImplementedError(
            "deadlock_free_users is proven for identical machines with unit weights"
        )
    floors = np.floor(instance.thresholds)
    return instance.n_resources * floors >= instance.n_users


def is_generous(instance: Instance) -> bool:
    """True iff *no* user can ever be blocked: ``m*floor(q_min) >= n``.

    On generous instances every selfish-stable state is satisfying, so
    protocol convergence to stability implies full satisfaction.
    """
    return bool(np.all(deadlock_free_users(instance)))
