"""QoS-oblivious selfish load balancing (the classical comparator).

The classical distributed load-balancing dynamic (in the style of
Berenbrink, Friedetzky, Goldberg, Goldberg, Hu and Martin, *Distributed
selfish load balancing*, SODA 2006) ignores QoS thresholds entirely: every
user wants lower latency, samples a random resource, and migrates towards
it with a damped probability proportional to the relative latency gap.
This converges (quickly, on identical machines) to approximately *balanced*
loads — the Nash equilibria of the latency-minimisation game.

It is the baseline for experiment T4: balancing is generally the **wrong**
objective under QoS.  Heterogeneous thresholds often require strongly
*unbalanced* satisfying states (pack the tolerant users tightly to free a
quiet resource for a demanding one), which this protocol actively destroys.

Migration rule per round, for every user ``u`` on resource ``r`` with
latency ``a`` (active per the schedule):

1. sample ``r'`` uniformly; let ``b = ell_{r'}(x_{r'} + w_u)`` be the
   latency after a hypothetical solo arrival;
2. if ``b < a``, migrate with probability ``1 - b/a`` (damping that avoids
   herding and, in the classical analysis, yields expected-constant-factor
   imbalance decay per round).
"""

from __future__ import annotations

import numpy as np

from ..core.protocols.base import Protocol, StepOutcome
from ..core.stability import best_alternative_latency
from ..core.state import State

__all__ = ["SelfishRebalanceProtocol"]


class SelfishRebalanceProtocol(Protocol):
    """Latency-driven damped migration, oblivious to QoS thresholds."""

    name = "selfish-rebalance"

    def __init__(self, min_gap: float = 0.0):
        if min_gap < 0:
            raise ValueError("min_gap must be non-negative")
        #: Migrate only when the relative improvement exceeds this; a small
        #: positive value stops late-stage churn between near-equal loads.
        self.min_gap = float(min_gap)

    def step(self, state: State, active: np.ndarray, rng: np.random.Generator) -> StepOutcome:
        """Every active user samples, and the improving ones migrate with
        probability ``1 - b/a``, all simultaneously."""
        inst = state.instance
        movers = np.nonzero(active)[0]
        if movers.size == 0:
            return StepOutcome(n_attempted=0, n_moved=0)
        if inst.access is None:
            targets = rng.integers(0, inst.n_resources, size=movers.size)
        else:
            targets = inst.access.sample(movers, rng)
        not_self = targets != state.assignment[movers]
        movers, targets = movers[not_self], targets[not_self]
        if movers.size == 0:
            return StepOutcome(n_attempted=0, n_moved=0)

        w = inst.weights[movers]
        current = state.user_latencies()[movers]
        after = inst.latencies.evaluate_at(targets, state.loads[targets] + w)
        with np.errstate(invalid="ignore", divide="ignore"):
            rel = np.where(current > 0, after / current, np.inf)
        improving = (after < current) & (1.0 - rel > self.min_gap)
        movers, targets, rel = movers[improving], targets[improving], rel[improving]
        if movers.size == 0:
            return StepOutcome(n_attempted=0, n_moved=0)
        commit = rng.random(movers.size) < (1.0 - rel)
        movers = movers[commit]
        n_moved = state.apply_migrations(movers, targets[commit])
        return StepOutcome(n_attempted=movers.size, n_moved=n_moved)

    def is_quiescent(self, state: State) -> bool:
        """Quiescent iff no user can strictly reduce its latency by moving
        (a Nash equilibrium of the latency game)."""
        best = best_alternative_latency(state, np.arange(state.instance.n_users))
        current = state.user_latencies()
        return not bool(np.any(best < current * (1.0 - self.min_gap)))

    def describe(self):
        d = super().describe()
        d.update(min_gap=self.min_gap)
        return d
