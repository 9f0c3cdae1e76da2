"""The headline distributed protocol: randomized sampling with damped moves.

``QoSSamplingProtocol`` is the reconstruction of the paper's main dynamic
**[reconstruction — model from title/venue/authors]**:

    In every round, every *unsatisfied* user independently:

    1. samples one accessible resource uniformly at random;
    2. asks it for its current load and checks, conservatively, whether it
       would be satisfied there if it were the only arrival
       (``ell_target(x_target + w_u) <= q_u``);
    3. if so, commits to migrating with a probability given by the
       migration-rate rule (constant ``1/2`` by default).

    All committed migrations happen simultaneously.

The protocol uses strictly local information: a user talks only to its own
resource (am I satisfied? — one comparison) and to one sampled resource per
round (its load).  Satisfied users do nothing, so a satisfying state is
absorbing: once reached, no user ever moves again — the convergence
criterion of the whole experiment suite.
"""

from __future__ import annotations

from .kernels import SampleCommitProtocol
from .rates import ConstantRate, MigrationRateRule

__all__ = ["QoSSamplingProtocol"]


class QoSSamplingProtocol(SampleCommitProtocol):
    """Uniform sampling + conservative check + damped commitment.

    Parameters
    ----------
    rate:
        Migration-rate rule; default ``ConstantRate(0.5)``.
    resample_on_self:
        By default a user that samples its own (unsatisfying) resource
        wastes the probe — wasted probes are part of the model's round
        accounting.  With this flag it redraws such probes up to four
        times.  Kept as an explicit parameter so the ablation can quantify
        the (small) effect.

    The round itself is the ``"sampling"`` kernel of
    :mod:`repro.core.protocols.kernels`.
    """

    kernel = "sampling"

    def __init__(
        self,
        rate: MigrationRateRule | None = None,
        *,
        resample_on_self: bool = False,
    ):
        self.rate = rate if rate is not None else ConstantRate(0.5)
        self.resample_on_self = bool(resample_on_self)
        self.name = f"qos-sampling[{self.rate.name}]"

    def describe(self):
        d = super().describe()
        d.update(rate=self.rate.describe(), resample_on_self=self.resample_on_self)
        return d
