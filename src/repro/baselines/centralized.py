"""Centralized assignment baselines — what a global controller could do.

These are the OPT columns of the experiment tables.  They see the whole
instance (all thresholds, all latency functions) and produce a complete
assignment in one shot; the distributed protocols are judged by how close
they get with local information only.

- :func:`optimal_assignment` — an exact satisfying assignment (raises on
  infeasible instances); the witness of
  :func:`~repro.core.feasibility.exact_feasibility`.
- The maximum achievable number of satisfied users (OPT_sat) is
  :func:`~repro.core.feasibility.max_satisfied` (exact for identical
  machines, greedy lower bound otherwise).
"""

from __future__ import annotations

from ..core.feasibility import exact_feasibility
from ..core.instance import Instance
from ..core.state import State

__all__ = ["optimal_assignment"]


def optimal_assignment(instance: Instance) -> State:
    """An exact satisfying assignment; raises ``ValueError`` if infeasible.

    Tries the greedy packing first (fast; exact on identical machines),
    then the segment DP (exact for any profile with a tractable latency
    type structure); raises ``NotImplementedError`` when neither applies.
    """
    result = exact_feasibility(instance)
    if not result.feasible:
        raise ValueError("instance is infeasible: no satisfying assignment exists")
    assert result.state is not None
    return result.state
