"""Activation schedules: who gets to act each round.

A distributed protocol cannot assume lockstep execution.  The engine models
timing as an *activation schedule*: each round the schedule yields a
boolean mask of users permitted to take a protocol step.  Convergence
results should be robust to any **fair** schedule (every user activated
infinitely often); experiment F7 measures the slowdown.

- :class:`SynchronousSchedule` — everyone, every round (the theory's
  default and the fastest case).
- :class:`AlphaSchedule` — each user independently with probability
  ``alpha`` (the standard partial-asynchrony model; expected slowdown
  ``~1/alpha``).
- :class:`PartitionSchedule` — users split into ``k`` fixed blocks served
  round-robin (a deterministic adversary with period ``k``).
- :class:`StaggeredSchedule` — one user per round, uniformly at random
  (the fully sequential extreme; also used to serialise best response).

All schedules are fair by construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Schedule",
    "SynchronousSchedule",
    "AlphaSchedule",
    "PartitionSchedule",
    "StaggeredSchedule",
]


class Schedule(ABC):
    """Produces the per-round activation mask."""

    name: str = "schedule"

    def reset(self, n_users: int, rng: np.random.Generator) -> None:
        """Called once per run before the first round."""

    @abstractmethod
    def active_mask(
        self, round_index: int, n_users: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Boolean mask of users allowed to act in this round."""

    def describe(self) -> dict:
        return {"name": self.name}


class SynchronousSchedule(Schedule):
    """All users act every round."""

    name = "synchronous"

    def active_mask(self, round_index, n_users, rng):
        return np.ones(n_users, dtype=bool)


class AlphaSchedule(Schedule):
    """Each user acts independently with probability ``alpha`` per round."""

    def __init__(self, alpha: float):
        if not (0.0 < alpha <= 1.0):
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.name = f"alpha({alpha:g})"

    def active_mask(self, round_index, n_users, rng):
        if self.alpha >= 1.0:
            return np.ones(n_users, dtype=bool)
        return rng.random(n_users) < self.alpha

    def describe(self):
        return {"name": self.name, "alpha": self.alpha}


class PartitionSchedule(Schedule):
    """Users split into ``k`` fixed random blocks, activated round-robin.

    A deterministic fair adversary: each user acts exactly once every ``k``
    rounds, and users in different blocks never act together — the pattern
    that maximally defeats concurrency-based analyses.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = int(k)
        self.name = f"partition({k})"
        self._block: np.ndarray | None = None

    def reset(self, n_users, rng):
        self._block = rng.integers(0, self.k, size=n_users)

    def active_mask(self, round_index, n_users, rng):
        if self._block is None or self._block.size != n_users:
            # Population changed mid-run (churn events): re-partition.
            self._block = rng.integers(0, self.k, size=n_users)
        return self._block == (round_index % self.k)

    def describe(self):
        return {"name": self.name, "k": self.k}


class StaggeredSchedule(Schedule):
    """Exactly one uniformly random user acts per round."""

    name = "staggered"

    def active_mask(self, round_index, n_users, rng):
        mask = np.zeros(n_users, dtype=bool)
        mask[int(rng.integers(0, n_users))] = True
        return mask


