"""Protocol interface: how users decide to migrate each round.

A protocol is the *distributed algorithm* under study.  Its contract is
deliberately narrow so that the information each protocol uses is auditable:

- :meth:`Protocol.propose` receives the current :class:`~repro.core.state.State`
  and an *active mask* (which users the schedule allows to act this round)
  and returns the set of migrations the users commit to, based only on the
  information the protocol is documented to use.
- The engine applies all committed migrations **simultaneously** — the
  concurrency that makes overshooting possible and migration-probability
  rules necessary.
- :meth:`Protocol.observe` is called after application with the users that
  moved, so protocols with per-user adaptive state (e.g. backoff rates) can
  update it.

Sequential algorithms (best response) override :meth:`Protocol.step`
directly, because Gauss–Seidel-style sweeps apply moves immediately rather
than simultaneously.

The six sample-then-commit protocols (sampling, multi-probe, permit,
neighbourhood, naive greedy, blind random) share one ``propose``:
:class:`~repro.core.protocols.kernels.SampleCommitProtocol` runs their
round math, which exists once in :mod:`repro.core.protocols.kernels`, on
a one-row view of the state.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..instance import Instance
from ..state import State

__all__ = ["Proposal", "Protocol", "StepOutcome"]


@dataclass(frozen=True)
class Proposal:
    """Simultaneous migration attempt: ``users[i]`` wants ``targets[i]``."""

    users: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        users = np.asarray(self.users, dtype=np.int64)
        targets = np.asarray(self.targets, dtype=np.int64)
        if users.shape != targets.shape or users.ndim != 1:
            raise ValueError("users and targets must be matching 1-D arrays")
        object.__setattr__(self, "users", users)
        object.__setattr__(self, "targets", targets)

    @property
    def size(self) -> int:
        return int(self.users.size)

    @classmethod
    def empty(cls) -> "Proposal":
        z = np.empty(0, dtype=np.int64)
        return cls(z, z)


@dataclass(frozen=True)
class StepOutcome:
    """What one protocol step did: attempted and realised migrations."""

    n_attempted: int
    n_moved: int
    moved_users: np.ndarray


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
    def propose(
        self, state: State, active: np.ndarray, rng: np.random.Generator
    ) -> Proposal:
        """Migrations committed this round by the active users."""

    def observe(self, state: State, moved_users: np.ndarray) -> None:
        """Post-application hook (state already reflects the moves)."""

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

    def step(self, state: State, active: np.ndarray, rng: np.random.Generator) -> StepOutcome:
        """Run one round: propose, apply simultaneously, observe.

        Subclasses implementing sequential dynamics override this.
        """
        proposal = self.propose(state, active, rng)
        n_moved = state.apply_migrations(proposal.users, proposal.targets)
        self.observe(state, proposal.users)
        return StepOutcome(
            n_attempted=proposal.size, n_moved=n_moved, moved_users=proposal.users
        )

    def describe(self) -> dict:
        """Parameters for traces; subclasses extend."""
        return {"name": self.name, "sequential": self.sequential}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.name!r})"
