"""Analysis toolkit: statistics, scaling fits, drift estimation, tables."""

from .distributions import (
    GeometricTail,
    geometric_tail_fit,
    survival_function,
    whp_quantile,
)
from .drift import DriftEstimate, estimate_drift
from .scaling import Fit, classify_growth, fit_linear, fit_logarithmic, fit_power
from .stats import Summary, bootstrap_ci, summarize
from .tables import format_cell, render_table

__all__ = [
    "Summary",
    "summarize",
    "bootstrap_ci",
    "Fit",
    "fit_logarithmic",
    "fit_power",
    "fit_linear",
    "classify_growth",
    "DriftEstimate",
    "estimate_drift",
    "survival_function",
    "GeometricTail",
    "geometric_tail_fit",
    "whp_quantile",
    "format_cell",
    "render_table",
]
