"""Migration-rate rules: how aggressively users commit to a sampled target.

In a concurrent dynamic, every unsatisfied user that finds a satisfying
target and jumps immediately can *herd*: many users pile onto the same
attractive resource, overshoot its capacity, and remain unsatisfied — the
system can oscillate forever (see the ``NaiveGreedyProtocol`` rows of
experiment T1).  The classical fix is to commit only with some probability,
trading per-round progress for stability.  The rules here are the ablation
surface of experiment F6:

- :class:`ConstantRate` — commit with fixed probability ``p``.  The
  headline protocol uses ``p = 1/2`` **[reconstruction]**: any constant in
  (0, 1) yields the same asymptotics; the experiments sweep ``p``.
- :class:`SlackProportionalRate` — commit with probability proportional to
  the target's free capacity relative to the *local* contention estimate
  (the number of unsatisfied users on the user's own resource).  Uses only
  information available from the user's own and sampled resource.
- :class:`AdaptiveBackoffRate` — per-user multiplicative backoff: halve the
  commit probability after each migration that still leaves the user
  unsatisfied (overshoot), recover multiplicatively after quiet rounds.
  Needs one float of per-user state and no extra communication.

The classes here hold only the parameters.  The commit math, and the
backoff rule's per-user probability vector, live in the protocol's
:class:`~repro.core.protocols.kernels.Kernel`, shared by every protocol
and the lockstep engine.
"""

from __future__ import annotations

from abc import ABC

__all__ = [
    "MigrationRateRule",
    "ConstantRate",
    "SlackProportionalRate",
    "AdaptiveBackoffRate",
]


class MigrationRateRule(ABC):
    """Decides which of the would-be migrants commit this round.

    A rule is a parameter carrier: the commit math of the three rules
    below lives once, in :mod:`repro.core.protocols.kernels`, shared by
    every protocol and by the lockstep engine.  A new rule needs a kernel
    there; the protocols reject a rule without one at ``reset`` with a
    :class:`ValueError` naming it.
    """

    name: str = "rate"

    def describe(self) -> dict:
        return {"name": self.name}


class ConstantRate(MigrationRateRule):
    """Commit independently with a fixed probability ``p``."""

    def __init__(self, p: float = 0.5):
        if not (0.0 < p <= 1.0):
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.p = float(p)
        self.name = f"const({p:g})"

    def describe(self):
        return {"name": self.name, "p": self.p}


class SlackProportionalRate(MigrationRateRule):
    """Commit with probability ``min(1, free_target / contention_here)``.

    ``free_target`` is the number of additional users the sampled resource
    could take while still satisfying *this* user (computed from its own
    threshold and the target's observed load), and ``contention_here`` is
    the number of unsatisfied users currently sharing the user's own
    resource — a local proxy for how many competitors are probing
    simultaneously.  Both quantities are available from the two resources
    the user already talks to, so the rule stays distributed.

    **[reconstruction]** — the original paper's rate rule could not be
    verified against the text; this rule is the natural load-adaptive
    choice in the Berenbrink et al. tradition and is compared against the
    constant rate in experiment F6.
    """

    name = "slack-proportional"

    def __init__(self, floor: float = 1.0 / 64.0):
        if not (0.0 < floor <= 1.0):
            raise ValueError("floor must be in (0, 1]")
        self.floor = float(floor)

    def describe(self):
        return {"name": self.name, "floor": self.floor}


class AdaptiveBackoffRate(MigrationRateRule):
    """Per-user multiplicative backoff on overshoot.

    Each user keeps a probability ``p_u`` (initially ``p0``).  After a round
    in which the user migrated and is *still* unsatisfied — evidence of
    collision — ``p_u`` is multiplied by ``backoff``.  After a round in
    which the user did not move, ``p_u`` recovers by ``recover`` (capped at
    1).  The floor prevents starvation.  The per-user vector lives in the
    protocol's kernel (:attr:`Kernel.P <repro.core.protocols.kernels.Kernel.P>`).
    """

    name = "adaptive-backoff"

    def __init__(
        self,
        p0: float = 1.0,
        backoff: float = 0.5,
        recover: float = 2.0,
        floor: float = 1.0 / 128.0,
    ):
        if not (0.0 < p0 <= 1.0):
            raise ValueError("p0 must be in (0, 1]")
        if not (0.0 < backoff < 1.0):
            raise ValueError("backoff must be in (0, 1)")
        if recover < 1.0:
            raise ValueError("recover must be >= 1")
        if not (0.0 < floor <= 1.0):
            raise ValueError("floor must be in (0, 1]")
        self.p0, self.backoff, self.recover, self.floor = (
            float(p0),
            float(backoff),
            float(recover),
            float(floor),
        )

    def describe(self):
        return {
            "name": self.name,
            "p0": self.p0,
            "backoff": self.backoff,
            "recover": self.recover,
            "floor": self.floor,
        }
