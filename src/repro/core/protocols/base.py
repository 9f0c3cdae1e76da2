"""Protocol interface: how users decide to migrate each round.

A protocol is the *distributed algorithm* under study.  Its contract is
deliberately narrow so that the information each protocol uses is auditable:

- :meth:`Protocol.reset` (re-)initialises per-run state; the engine calls
  it once per run and again after every event that changes the instance.
- :meth:`Protocol.step` receives the current :class:`~repro.core.state.State`
  and an *active mask* (which users the schedule allows to act this round),
  applies the round's migrations to the state in place and returns a
  :class:`StepOutcome`.  It uses only the information the protocol is
  documented to use.
- :meth:`Protocol.is_quiescent` tells the engine whether the protocol can
  ever move again; :meth:`Protocol.describe` names its parameters.

The six sample-then-commit protocols (sampling, multi-probe, permit,
neighbourhood, naive greedy, blind random) share one ``step``:
:class:`~repro.core.protocols.kernels.SampleCommitProtocol` runs their
round math, which exists once in :mod:`repro.core.protocols.kernels`, on
a one-row view of the state and applies the committed moves
**simultaneously** — the concurrency that makes overshooting possible and
migration-probability rules necessary.  Sequential algorithms (best
response) apply their moves one user at a time instead.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..instance import Instance
from ..state import State

__all__ = ["Protocol", "StepOutcome"]


@dataclass(frozen=True)
class StepOutcome:
    """What one protocol step did: attempted and realised migrations."""

    n_attempted: int
    n_moved: int


class Protocol(ABC):
    """Base class for all migration protocols."""

    #: Stable identifier used in traces, tables and the CLI.
    name: str = "protocol"

    #: True for algorithms that move at most one user per step and hence
    #: should be compared by *moves*, not rounds, in tables.
    sequential: bool = False

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        """(Re-)initialise per-run protocol state.  Called once per run."""

    @abstractmethod
    def step(self, state: State, active: np.ndarray, rng: np.random.Generator) -> StepOutcome:
        """Run one round on ``state`` in place: the active users decide and
        their migrations are applied."""

    def is_quiescent(self, state: State) -> bool | None:
        """Can this protocol ever move again from ``state``?

        ``True`` means the protocol is provably silent forever (the engine
        may stop), ``False`` means progress is still possible, ``None``
        means "unknown / never quiescent" (e.g. blind jumping) — the engine
        then runs to satisfaction or the round budget.

        The default matches improvement-based protocols that move only to
        selfishly satisfying targets: quiescent iff the state is
        selfish-stable (see :func:`repro.core.stability.is_stable`).
        """
        from ..stability import is_stable  # local import to avoid a cycle

        return is_stable(state)

    def describe(self) -> dict:
        """Parameters for traces; subclasses extend."""
        return {"name": self.name, "sequential": self.sequential}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"
