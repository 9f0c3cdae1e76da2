"""Power-of-d-choices extension: probe several resources, keep the best.

``MultiProbeProtocol`` generalises the sampling protocol's single probe to
``d`` independent uniform probes per activation.  The user migrates
(rate-damped, as usual) to the *satisfying* probed resource with the most
headroom.  This is the QoS analogue of the celebrated
"power of two choices" effect in balls-into-bins: the d-th probe is
exponentially more likely to find a seat when seats are scarce, and picking
the max-headroom seat spreads simultaneous arrivals across targets, cutting
the overshoot that damping otherwise has to absorb.

Cost model: each activation spends ``d`` messages instead of 1 (the
``phases`` attribute reflects this for the engine's message accounting),
so the experiment (F10) reports both rounds *and* total messages — the
interesting question is whether extra probes pay for themselves
end-to-end.

This protocol is an **extension** beyond the reconstructed paper protocol,
motivated by Mitzenmacher's two-choices paradigm and by Berenbrink et
al.'s use of multiple samples in selfish load balancing.
"""

from __future__ import annotations

from .kernels import SampleCommitProtocol
from .rates import ConstantRate, MigrationRateRule

__all__ = ["MultiProbeProtocol"]


class MultiProbeProtocol(SampleCommitProtocol):
    """Sample ``d`` resources per activation; move to the best satisfying one.

    The round is the ``"multiprobe"`` kernel of
    :mod:`repro.core.protocols.kernels`.
    """

    kernel = "multiprobe"

    def __init__(
        self,
        d: int = 2,
        rate: MigrationRateRule | None = None,
    ):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.rate = rate if rate is not None else ConstantRate(0.5)
        self.name = f"multi-probe(d={d})[{self.rate.name}]"

    @property
    def phases(self) -> int:
        """Each activation contacts ``d`` resources (message accounting)."""
        return self.d

    def describe(self):
        out = super().describe()
        out.update(d=self.d, rate=self.rate.describe())
        return out
