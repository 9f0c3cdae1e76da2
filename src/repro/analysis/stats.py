"""Summary statistics for replicated runs.

Convergence times of randomized dynamics are heavy-tailed enough that the
experiment tables report medians with bootstrap confidence intervals, not
bare means.  Everything here is deterministic given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from ..sim.rng import make_rng

__all__ = ["Summary", "summarize", "bootstrap_ci"]


@dataclass(frozen=True)
class Summary:
    """Distribution summary of one scalar metric across replications."""

    n: int
    mean: float
    std: float
    median: float
    q10: float
    q90: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float

    def row(self) -> list[float]:
        return [self.median, self.ci_low, self.ci_high, self.mean, self.std]

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"median={self.median:g} [{self.ci_low:g}, {self.ci_high:g}] "
            f"mean={self.mean:g}±{self.std:g} (n={self.n})"
        )


def bootstrap_ci(
    values: Sequence[float] | np.ndarray,
    stat: Callable[[np.ndarray], float] = np.median,
    *,
    confidence: float = 0.95,
    n_boot: int = 2000,
    seed: int | np.random.Generator = 0,
) -> tuple[float, float]:
    """Percentile bootstrap confidence interval for ``stat``.

    Resampling is vectorized: one ``(n_boot, n)`` index draw, statistics
    along axis 1.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("cannot bootstrap an empty sample")
    if not (0.0 < confidence < 1.0):
        raise ValueError("confidence must be in (0, 1)")
    if values.size == 1:
        v = float(values[0])
        return v, v
    rng = make_rng(seed)
    idx = rng.integers(0, values.size, size=(int(n_boot), values.size))
    samples = values[idx]
    try:
        stats = stat(samples, axis=1)  # type: ignore[call-arg]
    except TypeError:
        stats = np.asarray([stat(row) for row in samples])
    alpha = (1.0 - confidence) / 2.0
    lo, hi = np.quantile(stats, [alpha, 1.0 - alpha])
    return float(lo), float(hi)


def summarize(
    values: Sequence[float] | np.ndarray,
    *,
    confidence: float = 0.95,
    seed: int = 0,
) -> Summary:
    """Full distribution summary with a bootstrap CI on the median."""
    values = np.asarray(values, dtype=np.float64)
    values = values[~np.isnan(values)]
    if values.size == 0:
        raise ValueError("no finite values to summarize")
    lo, hi = bootstrap_ci(values, np.median, confidence=confidence, seed=seed)
    return Summary(
        n=int(values.size),
        mean=float(values.mean()),
        std=float(values.std(ddof=1)) if values.size > 1 else 0.0,
        median=float(np.median(values)),
        q10=float(np.quantile(values, 0.10)),
        q90=float(np.quantile(values, 0.90)),
        minimum=float(values.min()),
        maximum=float(values.max()),
        ci_low=lo,
        ci_high=hi,
    )
