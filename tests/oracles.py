"""Test oracles: slow, obviously-correct re-implementations.

The fast paths (vectorized masks, incremental loads, the OPT_sat segment
DP) are the code most likely to harbour subtle bugs, so the tests check
them against deliberately naive versions kept here, outside the library:

- :func:`certify_satisfying` — re-derives every user's latency from
  scratch with scalar arithmetic;
- :func:`certify_stable` — re-enumerates every (user, resource) move;
- :func:`certify_assignment_counts` — recounts loads with a dict;
- :func:`certify_max_satisfied_witness` — checks an OPT_sat witness
  attains its claimed count *and* that no single reassignment beats it
  (a local-optimality spot check; global optimality is checked by
  :func:`max_satisfied_brute_force` on small instances);
- :func:`brute_force_assignment` / :func:`max_satisfied_brute_force` —
  exhaustive search over all ``m**n`` assignments of a tiny instance;
- :func:`enumerate_stable_states` — every stable state of a tiny instance;
- :func:`is_latency_nash` — no user can cut its *latency* by moving alone
  (the solution concept of the QoS-oblivious selfish baseline);
- :func:`neighbors_of` — one resource's neighbours in a resource graph,
  read straight off its CSR arrays.

Each ``certify_*`` returns ``(ok, issues)`` where ``issues`` is a
human-readable list — empty iff the certificate holds.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator

import numpy as np

from repro.core.feasibility import FeasibilityResult, MaxSatisfiedResult
from repro.core.instance import Instance
from repro.core.stability import is_stable
from repro.core.state import State


def neighbors_of(graph, r: int) -> np.ndarray:
    """Resource ``r``'s neighbours in a :class:`ResourceGraph` (sorted)."""
    return graph.neighbors[graph.offsets[r] : graph.offsets[r + 1]]


def _scalar_latency(instance: Instance, r: int, load: float) -> float:
    return float(instance.latencies[r](float(load)))


def _scalar_loads(state: State) -> dict[int, float]:
    loads: dict[int, float] = {r: 0.0 for r in range(state.instance.n_resources)}
    for u in range(state.instance.n_users):
        loads[int(state.assignment[u])] += float(state.instance.weights[u])
    return loads


def certify_assignment_counts(state: State) -> tuple[bool, list[str]]:
    """Recount loads with plain Python and compare to the incremental ones."""
    issues = []
    loads = _scalar_loads(state)
    for r in range(state.instance.n_resources):
        if abs(loads[r] - float(state.loads[r])) > 1e-9:
            issues.append(
                f"resource {r}: incremental load {float(state.loads[r])} != "
                f"recount {loads[r]}"
            )
    return (not issues), issues


def certify_satisfying(state: State) -> tuple[bool, list[str]]:
    """Scalar re-check that every user meets its threshold."""
    ok_counts, issues = certify_assignment_counts(state)
    loads = _scalar_loads(state)
    for u in range(state.instance.n_users):
        r = int(state.assignment[u])
        lat = _scalar_latency(state.instance, r, loads[r])
        if lat > float(state.instance.thresholds[u]) + 1e-12:
            issues.append(
                f"user {u} on resource {r}: latency {lat} > threshold "
                f"{float(state.instance.thresholds[u])}"
            )
    return (not issues), issues


def certify_stable(state: State, *, polite: bool = False) -> tuple[bool, list[str]]:
    """Enumerate every unsatisfied user's every accessible move."""
    inst = state.instance
    loads = _scalar_loads(state)
    issues: list[str] = []

    # satisfied set and per-resource satisfied-resident minimum, scalar.
    satisfied = {}
    res_min: dict[int, float] = {r: float("inf") for r in range(inst.n_resources)}
    for u in range(inst.n_users):
        r = int(state.assignment[u])
        lat = _scalar_latency(inst, r, loads[r])
        satisfied[u] = lat <= float(inst.thresholds[u]) + 1e-12
        if satisfied[u]:
            res_min[r] = min(res_min[r], float(inst.thresholds[u]))

    for u in range(inst.n_users):
        if satisfied[u]:
            continue
        for r in inst.accessible(u):
            r = int(r)
            if r == int(state.assignment[u]):
                continue
            lat = _scalar_latency(inst, r, loads[r] + float(inst.weights[u]))
            if lat > float(inst.thresholds[u]) + 1e-12:
                continue
            if polite and lat > res_min[r] + 1e-12:
                continue
            issues.append(
                f"user {u} (unsatisfied) has a satisfying move to resource {r}"
            )
            break
    return (not issues), issues


def certify_max_satisfied_witness(
    instance: Instance, result: MaxSatisfiedResult
) -> tuple[bool, list[str]]:
    """Check an OPT_sat witness attains its count and is 1-move maximal."""
    issues: list[str] = []
    if result.state is None:
        return False, ["result carries no witness state"]
    state = result.state
    if state.n_satisfied != result.n_satisfied:
        issues.append(
            f"witness satisfies {state.n_satisfied} users, result claims "
            f"{result.n_satisfied}"
        )
    # 1-move maximality: no single user move increases the satisfied count.
    base = state.n_satisfied
    for u in range(instance.n_users):
        original = int(state.assignment[u])
        for r in instance.accessible(u):
            r = int(r)
            if r == original:
                continue
            probe = state.copy()
            probe.move_user(u, r)
            if probe.n_satisfied > base:
                issues.append(
                    f"moving user {u} to resource {r} improves the witness "
                    f"({probe.n_satisfied} > {base})"
                )
    return (not issues), issues


def _all_assignments(instance: Instance, limit: int) -> Iterator[State]:
    """Every assignment of a tiny unit-weight, complete-access instance."""
    if not instance.unit_weights:
        raise NotImplementedError("exhaustive search requires unit weights")
    if instance.access is not None and not instance.access.is_complete():
        raise NotImplementedError("exhaustive search requires complete accessibility")
    n, m = instance.n_users, instance.n_resources
    if m**n > limit:
        raise ValueError(f"search space m**n = {m**n} exceeds limit {limit}")
    for candidate in product(range(m), repeat=n):
        yield State(instance, np.asarray(candidate, dtype=np.int64))


def brute_force_assignment(instance: Instance, limit: int = 2_000_000) -> FeasibilityResult:
    """Exact feasibility by exhaustive search over all ``m**n`` assignments."""
    for state in _all_assignments(instance, limit):
        if state.is_satisfying():
            return FeasibilityResult(True, True, "brute-force", state)
    return FeasibilityResult(False, True, "brute-force", None)


def max_satisfied_brute_force(instance: Instance, limit: int = 2_000_000) -> MaxSatisfiedResult:
    """Exact OPT_sat by exhaustive assignment search."""
    best, best_state = -1, None
    for state in _all_assignments(instance, limit):
        s = state.n_satisfied
        if s > best:
            best, best_state = s, state
    return MaxSatisfiedResult(best, True, "brute-force", best_state)


def enumerate_stable_states(
    instance: Instance, *, polite: bool = False, limit: int = 2_000_000
) -> Iterator[State]:
    """All stable states of a tiny instance, by exhaustive search."""
    n, m = instance.n_users, instance.n_resources
    if m**n > limit:
        raise ValueError(f"search space m**n = {m**n} exceeds limit {limit}")
    for candidate in product(range(m), repeat=n):
        state = State(instance, np.asarray(candidate, dtype=np.int64))
        if is_stable(state, polite=polite):
            yield state


def is_latency_nash(state: State, *, tol: float = 1e-12) -> bool:
    """No user can strictly reduce its latency by moving alone."""
    inst = state.instance
    current = state.user_latencies()
    for u in range(inst.n_users):
        allowed = inst.accessible(u)
        allowed = allowed[allowed != state.assignment[u]]
        if allowed.size == 0:
            continue
        w = float(inst.weights[u])
        lat = inst.latencies.evaluate_at(allowed, state.loads[allowed] + w)
        if lat.min() < current[u] - tol:
            return False
    return True
