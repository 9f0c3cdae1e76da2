"""Potential (Lyapunov) functions for the QoS dynamics.

The convergence proofs in this literature are drift arguments: some
non-negative potential strictly decreases in expectation each round until a
satisfying state is reached.  The library exposes the natural candidates so
experiments can measure the drift empirically (see
:mod:`repro.analysis.drift`):

- :func:`unsatisfied_count` — the bluntest potential; zero iff satisfying.
- :func:`overload_potential` — per-resource *excess*: the minimum number of
  users that must leave each resource for all remaining ones to be
  satisfied there.  Zero iff satisfying; decreases by one for every
  "useful" migration and is insensitive to harmless churn, which makes it
  the sharpest empirical drift signal.

:func:`overload_potential` is memoized on the state's generation counter
(the ``potential/overload`` cache key): recorders that sample it every
round, and drift analyses that re-query between moves, hit the same value
without recomputation.
"""

from __future__ import annotations

import numpy as np

from .state import State

__all__ = ["unsatisfied_count", "overload_potential"]


def unsatisfied_count(state: State) -> float:
    """Number of unsatisfied users; zero iff the state is satisfying."""
    return float(state.n_unsatisfied)


def overload_potential(state: State) -> float:
    """Total excess users: ``sum_r (x_r - keepable_r)``.

    For resource ``r`` hosting users with thresholds ``q_1 >= q_2 >= ...``,
    the largest sub-group that can stay and be satisfied keeps the ``k``
    highest thresholds where ``k = max{k : ell_r(k) <= q_(k)}`` (keeping
    higher thresholds first is optimal because the constraint binds at the
    group minimum).  The potential is the total number of users that must
    move somewhere else.  It is zero iff the state is satisfying, and any
    single migration changes it by at most the migration's weight — the
    bounded-difference property drift arguments need.

    Requires unit weights (the combinatorial count is per-user).
    """
    return state.cached("potential/overload", _compute_overload_potential)


def _compute_overload_potential(state: State) -> float:
    inst = state.instance
    if not inst.unit_weights:
        raise NotImplementedError("overload_potential requires unit weights")
    total = 0
    order = np.argsort(state.assignment, kind="stable")
    sorted_res = state.assignment[order]
    boundaries = np.nonzero(np.diff(sorted_res))[0] + 1
    groups = np.split(order, boundaries)
    for grp in groups:
        if grp.size == 0:
            continue
        r = int(state.assignment[grp[0]])
        q = np.sort(inst.thresholds[grp])[::-1]
        ks = np.arange(1, grp.size + 1, dtype=np.float64)
        lat = inst.latencies[r](ks)
        ok = np.nonzero(lat <= q)[0]
        keepable = int(ok[-1]) + 1 if ok.size else 0
        total += grp.size - keepable
    return float(total)
