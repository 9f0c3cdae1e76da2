"""Fluid (mean-field) limit of the dynamics.

The discrete round dynamics at population ``n`` concentrate, as ``n``
grows, around the deterministic mass-fraction evolution implemented here
(experiment F11 measures the convergence rate).
"""

from .model import FluidSystem, FluidTrajectory, run_fluid

__all__ = [
    "FluidSystem",
    "FluidTrajectory",
    "run_fluid",
]
