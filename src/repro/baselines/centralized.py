"""Centralized assignment baselines — what a global controller could do.

These are the OPT columns of the experiment tables.  They see the whole
instance (all thresholds, all latency functions) and produce a complete
assignment in one shot; the distributed protocols are judged by how close
they get with local information only.

- :func:`optimal_assignment` — an exact satisfying assignment (raises on
  infeasible instances); delegates to the feasibility theory in
  :mod:`repro.core.feasibility`.
- :func:`opt_satisfied` — the maximum achievable number of satisfied users
  (exact for identical machines, greedy lower bound otherwise).
"""

from __future__ import annotations

from ..core.feasibility import (
    FeasibilityResult,
    MaxSatisfiedResult,
    greedy_assignment,
    max_satisfied,
    segment_dp_assignment,
)
from ..core.instance import Instance
from ..core.state import State

__all__ = [
    "optimal_assignment",
    "opt_satisfied",
]


def optimal_assignment(instance: Instance) -> State:
    """An exact satisfying assignment; raises ``ValueError`` if infeasible.

    Tries the greedy packing first (fast; exact on identical machines),
    then the segment DP (exact for any profile with a tractable latency
    type structure); raises ``NotImplementedError`` when neither applies.
    """
    result: FeasibilityResult = greedy_assignment(instance)
    if result.feasible:
        assert result.state is not None
        return result.state
    if result.exact:
        raise ValueError("instance is infeasible: no satisfying assignment exists")
    try:
        dp = segment_dp_assignment(instance)
    except ValueError:
        raise NotImplementedError(
            "exact optimal assignment is unavailable: too many distinct "
            "latency types for the segment DP"
        ) from None
    if dp.feasible:
        assert dp.state is not None
        return dp.state
    raise ValueError("instance is infeasible: no satisfying assignment exists")


def opt_satisfied(instance: Instance) -> MaxSatisfiedResult:
    """Maximum number of simultaneously satisfiable users (OPT_sat)."""
    return max_satisfied(instance)

