"""Scaling-law fits: is the measured convergence time logarithmic?

The paper's theorem-shaped claims are asymptotic (e.g. "O(log n) rounds
with constant slack").  The experiments discriminate between candidate
growth laws by fitting each and comparing goodness of fit on the measured
medians:

- :func:`fit_logarithmic` — ``T(n) = a * ln(n) + b``;
- :func:`fit_power` — ``T(n) = c * n**k`` (log–log linear);
- :func:`fit_linear` — ``T(n) = a * n + b``;
- :func:`classify_growth` — fit all three and report which explains the
  data best (by R² on the model's natural scale), with the convention that
  a power fit with tiny exponent is reported as logarithmic-compatible.

These are diagnostics for *shape*, not rigorous model selection; the
experiment records all fits so a reader can judge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Fit", "fit_logarithmic", "fit_power", "fit_linear", "classify_growth"]


@dataclass(frozen=True)
class Fit:
    """One fitted growth law."""

    model: str
    params: tuple[float, ...]
    r_squared: float

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.model == "logarithmic":
            return f"T = {self.params[0]:.3g}·ln n + {self.params[1]:.3g} (R²={self.r_squared:.3f})"
        if self.model == "power":
            return f"T = {self.params[0]:.3g}·n^{self.params[1]:.3g} (R²={self.r_squared:.3f})"
        return f"T = {self.params[0]:.3g}·n + {self.params[1]:.3g} (R²={self.r_squared:.3f})"


def _check(ns, ts) -> tuple[np.ndarray, np.ndarray]:
    ns = np.asarray(ns, dtype=np.float64)
    ts = np.asarray(ts, dtype=np.float64)
    if ns.shape != ts.shape or ns.ndim != 1:
        raise ValueError("ns and ts must be matching 1-D arrays")
    if ns.size < 3:
        raise ValueError("need at least 3 points to fit a growth law")
    if np.any(ns <= 0):
        raise ValueError("sizes must be positive")
    return ns, ts


def _r_squared(y: np.ndarray, yhat: np.ndarray) -> float:
    ss_res = float(np.sum((y - yhat) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return 1.0 - ss_res / ss_tot


def fit_logarithmic(ns, ts) -> Fit:
    """Least-squares fit of ``T = a * ln(n) + b``."""
    ns, ts = _check(ns, ts)
    x = np.log(ns)
    a, b = np.polyfit(x, ts, 1)
    return Fit("logarithmic", (float(a), float(b)), _r_squared(ts, a * x + b))


def fit_linear(ns, ts) -> Fit:
    """Least-squares fit of ``T = a * n + b``."""
    ns, ts = _check(ns, ts)
    a, b = np.polyfit(ns, ts, 1)
    return Fit("linear", (float(a), float(b)), _r_squared(ts, a * ns + b))


def fit_power(ns, ts) -> Fit:
    """Fit of ``T = c * n**k`` by linear regression in log–log space.

    R² is computed on the original scale so fits are comparable across
    models.  Requires positive ``ts``.
    """
    ns, ts = _check(ns, ts)
    if np.any(ts <= 0):
        raise ValueError("power fit requires positive times")
    k, logc = np.polyfit(np.log(ns), np.log(ts), 1)
    c = float(np.exp(logc))
    return Fit("power", (c, float(k)), _r_squared(ts, c * ns**k))


def classify_growth(ns, ts, *, log_exponent_cutoff: float = 0.25) -> dict:
    """Fit all laws; report the best and a log-vs-polynomial verdict.

    Verdicts:

    - ``"logarithmic"`` — the log fit wins, or the power fit wins with an
      exponent below ``log_exponent_cutoff`` (power laws with tiny
      exponents are observationally log-like over finite ranges);
    - ``"polynomial"`` — the power fit wins with a substantive exponent;
    - ``"linear"`` — the linear fit wins.
    """
    fits = {
        "logarithmic": fit_logarithmic(ns, ts),
        "power": fit_power(ns, ts) if np.all(np.asarray(ts) > 0) else None,
        "linear": fit_linear(ns, ts),
    }
    candidates = {k: f for k, f in fits.items() if f is not None}
    best_name = max(candidates, key=lambda k: candidates[k].r_squared)
    best = candidates[best_name]
    verdict = best_name
    if best_name == "power" and abs(best.params[1]) < log_exponent_cutoff:
        verdict = "logarithmic"
    return {"fits": candidates, "best": best, "verdict": verdict}
