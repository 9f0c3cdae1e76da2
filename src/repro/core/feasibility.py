"""Feasibility theory: do satisfying states exist, and what does OPT look like?

This module contains the *exact* combinatorial side of the reproduction:

- :func:`greedy_assignment` — the threshold-sorted greedy packing that
  constructs a satisfying state whenever one exists on **identical
  machines** (exactness verified against a brute-force oracle in the
  test suite); on heterogeneous profiles a successful packing is still an
  exact witness but a failure is inconclusive.
- :func:`segment_dp_assignment` — exact feasibility for **arbitrary**
  latency profiles via the contiguity theorem (any satisfying assignment
  can be rearranged into contiguous segments of the threshold-sorted user
  order) and a DP over segments x remaining machine types.
- :func:`exact_feasibility` — the one exact policy on top of both:
  greedy, then the segment DP when greedy's verdict is inconclusive.
  :func:`is_feasible` and the centralized
  :func:`~repro.baselines.centralized.optimal_assignment` both read it.
- :func:`max_satisfied` — the maximum number of simultaneously satisfiable
  users (OPT_sat) for infeasible instances: exact for identical machines at
  any size via an O(m*n) DP over segments of the threshold-sorted order,
  greedy heuristic otherwise.
- :func:`multiplicative_slack` — how far the thresholds can be scaled
  down while staying feasible; the experiment suite sweeps generated slack
  and this function audits it.

Background: with identical machines (``ell(x) = x``) a set ``S`` of
unit-weight users on one resource is fully satisfied iff
``|S| <= min_{u in S} q_u``.  Sorting thresholds in descending order
``q(1) >= ... >= q(n)``, the largest prefix that fits on one resource is
``t* = max{t : t <= q(t)}``, and recursing on the remainder with one fewer
resource is optimal (an exchange argument: replacing any group member with
a higher-threshold user never decreases the group minimum, so groups can be
made contiguous in sorted order; and extending the first group never hurts
the rest).
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .instance import Instance
from .state import State

__all__ = [
    "FeasibilityResult",
    "MaxSatisfiedResult",
    "greedy_assignment",
    "segment_dp_assignment",
    "exact_feasibility",
    "is_feasible",
    "max_satisfied",
    "multiplicative_slack",
]


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility check.

    ``feasible`` is authoritative only when ``exact`` is True; otherwise a
    False value means "greedy failed", which proves nothing on
    heterogeneous profiles (see :func:`segment_dp_assignment`).
    """

    feasible: bool
    exact: bool
    method: str
    state: State | None = None


@dataclass(frozen=True)
class MaxSatisfiedResult:
    """Best-known number of simultaneously satisfiable users with witness."""

    n_satisfied: int
    exact: bool
    method: str
    state: State | None = None


def _require_exact_model(instance: Instance, what: str) -> None:
    if not instance.unit_weights:
        raise NotImplementedError(f"{what} requires unit weights")
    if instance.access is not None and not instance.access.is_complete():
        raise NotImplementedError(f"{what} requires complete accessibility")


def _resource_strength_order(instance: Instance) -> np.ndarray:
    """Resources ordered strongest (lowest latency at high load) first."""
    n = instance.n_users
    grid = np.arange(n + 1, dtype=np.float64)
    values = np.stack([f(grid) for f in instance.latencies.functions])
    finite = np.where(np.isfinite(values), values, np.finfo(np.float64).max)
    # Lexicographic by latency at the highest load first, tie-broken by
    # lower loads: the machine that stays cheap when full is strongest.
    keys = finite[:, ::-1]
    return np.lexsort(keys.T[::-1])


def _greedy_prefix_size(
    instance: Instance, resource: int, sorted_thresholds: np.ndarray, start: int
) -> int:
    """Largest ``t`` such that the ``t`` users ``start..start+t-1`` (thresholds
    sorted descending) fit together on ``resource``.

    The predicate ``ell_r(t) <= q(start + t - 1)`` is monotone (latency
    non-decreasing in ``t``, sorted thresholds non-increasing), so binary
    search applies.
    """
    f = instance.latencies[resource]
    remaining = sorted_thresholds.size - start
    if remaining <= 0:
        return 0
    lo, hi = 0, remaining  # invariant: predicate holds at lo, fails at hi+1
    if f(1) > sorted_thresholds[start]:
        return 0
    lo = 1
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if f(mid) <= sorted_thresholds[start + mid - 1]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def greedy_assignment(instance: Instance) -> FeasibilityResult:
    """Threshold-sorted greedy packing; exact for identical machines.

    Users are sorted by threshold descending; resources are processed
    strongest-first; each resource takes the largest feasible prefix of the
    remaining users.  A successful packing is always an exact feasibility
    witness.  A *failure* proves infeasibility only for identical machines
    (symmetry makes the maximal-prefix choice safe); for heterogeneous
    profiles a machine must sometimes take a non-maximal or later segment —
    e.g. thresholds ``[3, 3, 1]`` on speeds ``[2, 0.5]`` are feasible only
    with the demanding user *sharing* the fast machine — so greedy failure
    is inconclusive there (``exact=False``; use
    :func:`segment_dp_assignment`).
    """
    _require_exact_model(instance, "greedy_assignment")
    order = np.argsort(-instance.thresholds, kind="stable")
    sorted_q = instance.thresholds[order]

    assignment = np.full(instance.n_users, -1, dtype=np.int64)
    start = 0
    for r in _resource_strength_order(instance):
        if start >= instance.n_users:
            break
        t = _greedy_prefix_size(instance, int(r), sorted_q, start)
        if t > 0:
            assignment[order[start : start + t]] = r
            start += t

    if start < instance.n_users:
        # Failure is conclusive for identical machines (symmetry) and for
        # uniform thresholds (each machine then packs exactly its capacity
        # cap_r(q), so failure means total capacity < n on any profile).
        uniform_q = bool(np.all(instance.thresholds == instance.thresholds[0]))
        return FeasibilityResult(
            feasible=False,
            exact=instance.identical_resources or uniform_q,
            method="greedy",
            state=None,
        )
    state = State(instance, assignment)
    assert state.is_satisfying(), "greedy produced a non-satisfying packing"
    return FeasibilityResult(feasible=True, exact=True, method="greedy", state=state)


def segment_dp_assignment(
    instance: Instance, *, state_limit: int = 2_000_000
) -> FeasibilityResult:
    """Exact feasibility for arbitrary latency profiles (moderate sizes).

    Based on the **contiguity theorem**: if a satisfying assignment exists,
    one exists in which every resource serves a contiguous segment of the
    threshold-descending user order.  (Order any solution's groups by their
    minimum threshold descending and redistribute the sorted users
    segment-by-segment: the new minimum of the ``j``-th segment is the
    ``(len_1 + ... + len_j)``-th largest threshold overall, which is at
    least the minimum over the union of the first ``j`` original groups,
    i.e. at least the ``j``-th group's original minimum — so every group
    constraint still holds.)

    The DP walks the sorted users left to right, choosing for each segment
    a *latency type* (distinct latency function) with remaining
    multiplicity and a segment length up to the maximal feasible prefix.
    State space is ``n * prod(count_t + 1)`` over distinct types — cheap
    for identical or few-type farms, exponential for all-distinct speeds;
    ``state_limit`` guards against the latter (raises ``ValueError``).
    """
    _require_exact_model(instance, "segment_dp_assignment")
    n = instance.n_users
    order = np.argsort(-instance.thresholds, kind="stable")
    sorted_q = instance.thresholds[order]

    # Group resources into types by their latency function.
    type_to_resources: dict[object, list[int]] = {}
    for r, f in enumerate(instance.latencies.functions):
        type_to_resources.setdefault(f, []).append(r)
    types = list(type_to_resources.keys())
    counts = tuple(len(type_to_resources[t]) for t in types)

    n_states = (n + 1) * int(np.prod([c + 1 for c in counts], dtype=np.float64))
    if n_states > state_limit:
        raise ValueError(
            f"segment DP state space {n_states} exceeds limit {state_limit}"
        )

    # Representative resource per type for prefix-size computation.
    reps = [type_to_resources[t][0] for t in types]

    @lru_cache(maxsize=None)
    def solve(start: int, remaining: tuple[int, ...]) -> tuple[int, int] | None:
        """First (type index, segment length) of a feasible completion, or
        None.  Length 0 with no remaining types means failure unless done."""
        if start >= n:
            return (-1, 0)  # done
        for ti in range(len(types)):
            if remaining[ti] == 0:
                continue
            t_max = _greedy_prefix_size(instance, reps[ti], sorted_q, start)
            nxt = list(remaining)
            nxt[ti] -= 1
            nxt_t = tuple(nxt)
            # Try longer segments first: succeeds faster on easy instances.
            for t in range(t_max, 0, -1):
                if solve(start + t, nxt_t) is not None:
                    return (ti, t)
        return None

    # Each recursion level places at least one user; the raised limit is
    # restored so the DP does not leak it into the rest of the interpreter.
    old_limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old_limit, n + 200))
    try:
        first = solve(0, counts)
    finally:
        sys.setrecursionlimit(old_limit)
    if first is None:
        return FeasibilityResult(False, True, "segment-dp", None)

    # Reconstruct the witness by replaying the memoised decisions.
    assignment = np.full(n, -1, dtype=np.int64)
    start, remaining = 0, counts
    pools = {ti: list(type_to_resources[types[ti]]) for ti in range(len(types))}
    while start < n:
        decision = solve(start, remaining)
        assert decision is not None and decision[0] >= 0
        ti, t = decision
        resource = pools[ti].pop()
        assignment[order[start : start + t]] = resource
        nxt = list(remaining)
        nxt[ti] -= 1
        remaining = tuple(nxt)
        start += t
    # Park unused resources implicitly (they stay empty).
    state = State(instance, assignment)
    assert state.is_satisfying(), "segment DP produced a non-satisfying witness"
    return FeasibilityResult(True, True, "segment-dp", state)


def exact_feasibility(instance: Instance) -> FeasibilityResult:
    """An exact feasibility verdict, with a witness state when feasible.

    Tries, in order: greedy (fast; exact witness on success, exact failure
    for identical machines) and the segment DP (exact for any profile with
    a tractable type structure).  Raises :class:`NotImplementedError` when
    neither applies — many-distinct-type profiles.
    """
    result = greedy_assignment(instance)
    if result.exact:
        return result
    try:
        return segment_dp_assignment(instance)
    except ValueError:
        raise NotImplementedError(
            "exact feasibility is unavailable: too many distinct latency "
            "types for the segment DP"
        ) from None


def is_feasible(instance: Instance) -> bool:
    """Convenience wrapper: the authoritative verdict of
    :func:`exact_feasibility` (raises :class:`NotImplementedError` when no
    exact method applies)."""
    return exact_feasibility(instance).feasible


# ---------------------------------------------------------------------------
# OPT_sat: maximum simultaneously satisfiable users
# ---------------------------------------------------------------------------


def _max_satisfied_identical(instance: Instance, order_desc: np.ndarray) -> MaxSatisfiedResult:
    """Exact OPT_sat on identical machines by the O(m*n) segment DP.

    Some optimum satisfies a prefix of the threshold-descending order, split
    into contiguous segments, one per machine (exchange argument plus the
    contiguity theorem of :func:`segment_dp_assignment`).  A segment ending
    at user ``e`` holds at most ``cap_e = floor(q_e)`` users *including*
    unsatisfied fillers.  ``best[j][e]`` is the largest total cap over the
    ends of ``j`` segments exactly covering the top ``e`` users:
    ``best[j][e] = cap_e + max{best[j-1][s] : e - cap_e <= s < e}``, whose
    window only slides right, so one monotone deque per ``j`` suffices.
    The optimum is the larger of (A) a prefix covered by at most ``m - 1``
    segments (or all ``n`` users by at most ``m``), the fillers piled on a
    spare machine, and (B) a prefix covered by exactly ``m`` segments whose
    slack ``sum(cap) - e`` absorbs the ``n - e`` fillers.
    """
    n, m = instance.n_users, instance.n_resources
    caps = np.clip(np.floor(instance.thresholds[order_desc]), 0, n).astype(np.int64).tolist()
    prev = [0] + [-1] * n  # best[j-1][.]; -1 marks "unreachable"
    back: list[list[int]] = [[]]  # back[j][e]: start of the last segment
    e_a, j_a = 0, 0  # case (A): largest covered prefix, its segment count
    for j in range(1, m + 1):
        cur, starts = [-1] * (n + 1), [0] * (n + 1)
        window: deque[int] = deque()  # candidate starts, prev[s] decreasing
        for e in range(1, n + 1):
            cap = caps[e - 1]
            if cap == 0:
                break  # caps are non-increasing: nothing further is reachable
            v = prev[e - 1]
            if v >= 0:
                while window and prev[window[-1]] <= v:
                    window.pop()
                window.append(e - 1)
            while window and window[0] < e - cap:
                window.popleft()
            if window:
                s = window[0]
                cur[e], starts[e] = cap + prev[s], s
                if j < m and e > e_a:
                    e_a, j_a = e, j
        back.append(starts)
        prev = cur
        if cur[n] >= 0:
            e_a, j_a = n, j  # feasible: everyone satisfied
            break
    # Case (B): all m machines hold satisfied users, fillers in the slack.
    # (After an early break e_a = n, so the stale row cannot win.)
    e_b = max((e for e in range(n + 1) if prev[e] >= n), default=0)
    fill_slack = e_b > e_a
    e, j = (e_b, m) if fill_slack else (e_a, j_a)

    assignment = np.empty(n, dtype=np.int64)
    end, pos = e, e  # pos: next filler in descending order
    for k in range(j, 0, -1):  # replay segments last to first on machine k - 1
        s = back[k][end]
        assignment[order_desc[s:end]] = k - 1
        if fill_slack:
            take = min(caps[end - 1] - (end - s), n - pos)
            assignment[order_desc[pos : pos + take]] = k - 1
            pos += take
        end = s
    assignment[order_desc[pos:]] = j  # case (A): the spare machine
    state = State(instance, assignment)
    assert state.n_satisfied == e, "segment DP witness disagrees with its value"
    return MaxSatisfiedResult(e, True, "segment-dp", state)


def max_satisfied(instance: Instance) -> MaxSatisfiedResult:
    """Maximum number of simultaneously satisfiable users (OPT_sat).

    For identical machines with unit weights the answer is exact at any
    size (``method="segment-dp"``): an O(m*n) dynamic program over
    segments of the threshold-sorted order, see
    :func:`_max_satisfied_identical`.

    For heterogeneous profiles the result is a greedy lower bound
    (``exact=False``): pack satisfying groups greedily, then dump leftovers
    on the resource where they break the fewest users.
    """
    _require_exact_model(instance, "max_satisfied")
    n, m = instance.n_users, instance.n_resources
    order_desc = np.argsort(-instance.thresholds, kind="stable")
    q_desc = instance.thresholds[order_desc]

    if instance.identical_resources:
        return _max_satisfied_identical(instance, order_desc)

    # Greedy heuristic (lower bound): greedy feasible packing of a maximal
    # satisfied set, leftovers dumped where they hurt least.
    greedy = greedy_assignment(instance)
    if greedy.feasible:
        return MaxSatisfiedResult(n, greedy.exact, "greedy-feasible", greedy.state)

    assignment = np.full(n, -1, dtype=np.int64)
    start = 0
    sorted_q = q_desc
    group_min: dict[int, float] = {}
    for r in _resource_strength_order(instance):
        if start >= n:
            break
        t = _greedy_prefix_size(instance, int(r), sorted_q, start)
        if t > 0:
            assignment[order_desc[start : start + t]] = r
            group_min[int(r)] = float(sorted_q[start + t - 1])
            start += t
    leftovers = order_desc[start:]
    if leftovers.size:
        # Dump all leftovers on the single resource where the resulting
        # load breaks the fewest packed users (often an empty resource).
        base_loads = np.bincount(
            assignment[assignment >= 0], minlength=m
        ).astype(np.float64)
        best_r, best_broken = 0, np.inf
        for r in range(m):
            new_load = base_loads[r] + leftovers.size
            lat = instance.latencies[r](new_load)
            members = np.nonzero(assignment == r)[0]
            broken = int(np.count_nonzero(instance.thresholds[members] < lat))
            if broken < best_broken:
                best_r, best_broken = r, broken
        assignment[leftovers] = best_r
    state = State(instance, assignment)
    return MaxSatisfiedResult(int(state.n_satisfied), False, "greedy-dump", state)


# ---------------------------------------------------------------------------
# Slack
# ---------------------------------------------------------------------------


def _tightened(instance: Instance, *, factor: float = 1.0, delta: float = 0.0) -> Instance:
    q = instance.thresholds * factor - delta
    if np.any(q <= 0):
        raise ValueError("tightening makes a threshold non-positive")
    return Instance(
        thresholds=q,
        latencies=instance.latencies,
        weights=instance.weights,
        access=instance.access,
        name=instance.name,
    )


def multiplicative_slack(instance: Instance, tol: float = 1e-3) -> float:
    """Largest ``eps`` in [0, 1) such that thresholds scaled by ``(1-eps)``
    remain feasible; 0.0 if the instance is tight (or infeasible).

    Requires an exact feasibility method (see :func:`is_feasible`).
    """
    if not is_feasible(instance):
        return 0.0
    lo, hi = 0.0, 1.0  # feasible at lo; infeasible at hi (thresholds -> 0)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        try:
            ok = is_feasible(_tightened(instance, factor=1.0 - mid))
        except ValueError:
            ok = False
        if ok:
            lo = mid
        else:
            hi = mid
    return lo

