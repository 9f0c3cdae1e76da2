"""Failure and churn injection for self-stabilisation experiments.

Events fire at round boundaries and transform the (instance, state) pair —
instances are immutable, so an event builds a modified instance and a state
carrying the surviving assignment over.  The protocols are *not* told about
events; stranded users simply find themselves unsatisfied (a crashed
resource has infinite latency) and migrate away through the ordinary
dynamics.  That is the point of experiment F8: recovery is an emergent
property of the protocol, not a special repair path.

Provided events:

- :class:`ResourceFailure` / :class:`ResourceRecovery` — swap a resource's
  latency function with :class:`~repro.core.latency.UnavailableLatency`
  and back.
- :class:`UserArrival` — new users join on random accessible resources.
- :class:`UserDeparture` — a random (or given) subset of users leaves.
  User indices are compacted, so per-user identities are not preserved
  across a departure (documented; trajectory metrics are aggregate).

Events require complete accessibility (access maps would need rewiring
rules that are application-specific).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..core.instance import Instance
from ..core.latency import LatencyFunction, LatencyProfile, UnavailableLatency
from ..core.state import State

__all__ = [
    "Event",
    "ResourceFailure",
    "ResourceRecovery",
    "UserArrival",
    "UserDeparture",
]


class Event(ABC):
    """A scheduled perturbation of the running system."""

    def __init__(self, round_index: int):
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        self.round_index = int(round_index)

    @abstractmethod
    def apply(
        self, instance: Instance, state: State, rng: np.random.Generator
    ) -> tuple[Instance, State]:
        """Return the transformed (instance, state)."""

    def _check(self, instance: Instance) -> None:
        if instance.access is not None and not instance.access.is_complete():
            raise NotImplementedError("events require complete accessibility")

    def describe(self) -> dict:
        return {"type": type(self).__name__, "round": self.round_index}


def _swap_latency(
    instance: Instance, resource: int, fn: LatencyFunction
) -> Instance:
    functions = list(instance.latencies.functions)
    if not (0 <= resource < len(functions)):
        raise ValueError("resource out of range")
    functions[resource] = fn
    return Instance(
        thresholds=instance.thresholds,
        latencies=LatencyProfile(functions),
        weights=instance.weights,
        access=instance.access,
        name=instance.name,
    )


class ResourceFailure(Event):
    """Resource ``resource`` crashes: latency becomes ``+inf`` everywhere.

    Users currently on it stay (and become unsatisfied); remembering the
    previous latency function for recovery is the caller's job (or use
    :class:`ResourceRecovery` with an explicit function).
    """

    def __init__(self, round_index: int, resource: int):
        super().__init__(round_index)
        self.resource = int(resource)

    def apply(self, instance, state, rng):
        self._check(instance)
        new_instance = _swap_latency(instance, self.resource, UnavailableLatency())
        return new_instance, State(new_instance, state.assignment)

    def describe(self):
        d = super().describe()
        d.update(resource=self.resource)
        return d


class ResourceRecovery(Event):
    """Resource comes back with the given latency function."""

    def __init__(self, round_index: int, resource: int, latency: LatencyFunction):
        super().__init__(round_index)
        self.resource = int(resource)
        self.latency = latency

    def apply(self, instance, state, rng):
        self._check(instance)
        if not isinstance(instance.latencies[self.resource], UnavailableLatency):
            raise ValueError(
                f"resource {self.resource} is not failed; refusing to overwrite"
            )
        new_instance = _swap_latency(instance, self.resource, self.latency)
        return new_instance, State(new_instance, state.assignment)

    def describe(self):
        d = super().describe()
        d.update(resource=self.resource, latency=repr(self.latency))
        return d


class UserArrival(Event):
    """New users join, initially placed on uniformly random resources."""

    def __init__(
        self,
        round_index: int,
        thresholds: np.ndarray,
        weights: np.ndarray | None = None,
    ):
        super().__init__(round_index)
        self.thresholds = np.asarray(thresholds, dtype=np.float64)
        if self.thresholds.ndim != 1 or self.thresholds.size == 0:
            raise ValueError("thresholds must be a non-empty 1-D array")
        self.weights = (
            np.ones(self.thresholds.size)
            if weights is None
            else np.asarray(weights, dtype=np.float64)
        )
        if self.weights.shape != self.thresholds.shape:
            raise ValueError("weights must match thresholds in shape")

    def apply(self, instance, state, rng):
        self._check(instance)
        new_instance = Instance(
            thresholds=np.concatenate([instance.thresholds, self.thresholds]),
            latencies=instance.latencies,
            weights=np.concatenate([instance.weights, self.weights]),
            access=None,
            name=instance.name,
        )
        newcomers = rng.integers(
            0, instance.n_resources, size=self.thresholds.size
        )
        assignment = np.concatenate([state.assignment, newcomers])
        return new_instance, State(new_instance, assignment)

    def describe(self):
        d = super().describe()
        d.update(n_arriving=int(self.thresholds.size))
        return d


class UserDeparture(Event):
    """``count`` uniformly random users (or an explicit list) leave."""

    def __init__(self, round_index: int, count: int = 0, users: np.ndarray | None = None):
        super().__init__(round_index)
        if users is None and count <= 0:
            raise ValueError("give either a positive count or explicit users")
        self.count = int(count)
        self.users = None if users is None else np.asarray(users, dtype=np.int64)

    def apply(self, instance, state, rng):
        self._check(instance)
        n = instance.n_users
        if self.users is not None:
            leaving = np.unique(self.users)
            if leaving.size and (leaving[0] < 0 or leaving[-1] >= n):
                raise ValueError("departing user out of range")
        else:
            if self.count > n - 1:  # at least one user must remain
                raise ValueError(
                    f"cannot remove {self.count} of {n} users: "
                    "at least one user must remain"
                )
            leaving = rng.choice(n, size=self.count, replace=False)
        keep = np.setdiff1d(np.arange(n), leaving)
        if keep.size == 0:
            raise ValueError("cannot remove every user")
        new_instance = Instance(
            thresholds=instance.thresholds[keep],
            latencies=instance.latencies,
            weights=instance.weights[keep],
            access=None,
            name=instance.name,
        )
        return new_instance, State(new_instance, state.assignment[keep])

    def describe(self):
        d = super().describe()
        d.update(count=self.count if self.users is None else int(self.users.size))
        return d
