"""Undamped and uninformed baselines.

These protocols exist to *fail* instructively:

- :class:`NaiveGreedyProtocol` commits with probability 1 whenever the
  sampled resource looks satisfying.  On instances with scarce attractive
  capacity all unsatisfied users herd onto the same resources, overshoot,
  and the system can cycle for a long time (or forever in expectation on
  adversarial instances) — the motivation for damped migration rates
  (experiment T1).
- :class:`BlindRandomProtocol` jumps to a uniformly random resource without
  checking anything.  It eventually stumbles into a satisfying state on
  feasible instances (the chain is irreducible over assignments), but the
  hitting time is exponential in general — the "no information" lower
  anchor for the protocol-comparison table.

Both rounds are kernels of :mod:`repro.core.protocols.kernels`: naive
greedy is the ``"sampling"`` kernel at rate 1, blind random the
``"blind"`` kernel, so either runs lockstep on the batched engine.
"""

from __future__ import annotations

from .kernels import SampleCommitProtocol
from .rates import ConstantRate
from .sampling import QoSSamplingProtocol

__all__ = ["NaiveGreedyProtocol", "BlindRandomProtocol"]


class NaiveGreedyProtocol(QoSSamplingProtocol):
    """Sampling protocol with commitment probability 1 (herding-prone)."""

    kernel = "sampling"

    def __init__(self):
        super().__init__(rate=ConstantRate(1.0))
        self.name = "naive-greedy"


class BlindRandomProtocol(SampleCommitProtocol):
    """Unsatisfied users teleport to a uniformly random accessible resource.

    ``jump_p`` damps the jumps (default 1: always jump).  No load
    information is used at all.  The round is the ``"blind"`` kernel; a
    jump to the user's own resource counts as an attempt, not a move.
    """

    kernel = "blind"

    def __init__(self, jump_p: float = 1.0):
        if not (0.0 < jump_p <= 1.0):
            raise ValueError("jump_p must be in (0, 1]")
        self.jump_p = float(jump_p)
        self.name = f"blind-random({jump_p:g})"

    def is_quiescent(self, state):
        # Blind jumping keeps moving while anyone is unsatisfied; it only
        # ever goes silent at satisfying states, which the engine detects
        # separately.
        return None

    def describe(self):
        d = super().describe()
        d.update(jump_p=self.jump_p)
        return d
