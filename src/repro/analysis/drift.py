"""Empirical potential drift — measuring the theory's workhorse.

Convergence proofs for these dynamics are drift arguments: a non-negative
potential ``Phi`` (see :mod:`repro.core.potential`) satisfies
``E[Phi_{t+1} - Phi_t | Phi_t > 0] <= -delta`` (or a multiplicative
contraction), which bounds the expected convergence time.  Experiment T4
checks the premise directly: run the protocol with a recorded potential and
estimate the conditional drift, overall and bucketed by potential level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.instance import Instance
from ..core.protocols.base import Protocol
from ..sim.engine import run
from ..sim.metrics import Recorder

__all__ = ["DriftEstimate", "estimate_drift"]


@dataclass(frozen=True)
class DriftEstimate:
    """Conditional one-round potential drift of a protocol on an instance."""

    potential_name: str
    n_transitions: int
    mean_drift: float
    negative_fraction: float
    #: bucket upper edges -> (count, mean drift) for drift-by-level tables
    by_level: dict[float, tuple[int, float]]


def estimate_drift(
    instance: Instance,
    protocol: Protocol,
    potential_fn,
    *,
    potential_name: str = "potential",
    n_runs: int = 10,
    max_rounds: int = 2000,
    initial: str = "pile",
    seed: int = 0,
    n_buckets: int = 5,
) -> DriftEstimate:
    """Estimate ``E[Phi_{t+1} - Phi_t | Phi_t > 0]`` over replicated runs.

    Transitions with ``Phi_t = 0`` are excluded (the state is absorbed or
    satisfying; the theory conditions on non-convergence).
    """
    deltas: list[np.ndarray] = []
    levels: list[np.ndarray] = []
    for i in range(n_runs):
        recorder = Recorder(potentials={potential_name: potential_fn})
        run(
            instance,
            protocol,
            seed=seed * 1_000_003 + i,
            max_rounds=max_rounds,
            initial=initial,
            recorder=recorder,
        )
        series = recorder.finalize().potentials[potential_name]
        if series.size < 2:
            continue
        d = np.diff(series)
        lv = series[:-1]
        mask = lv > 0
        deltas.append(d[mask])
        levels.append(lv[mask])
    if not deltas:
        raise ValueError("no transitions with positive potential observed")
    delta = np.concatenate(deltas)
    level = np.concatenate(levels)

    by_level: dict[float, tuple[int, float]] = {}
    if delta.size:
        edges = np.quantile(level, np.linspace(0, 1, n_buckets + 1)[1:])
        edges = np.unique(edges)
        which = np.searchsorted(edges, level, side="left")
        for b, edge in enumerate(edges):
            sel = which == b
            if np.any(sel):
                by_level[float(edge)] = (
                    int(np.count_nonzero(sel)),
                    float(delta[sel].mean()),
                )

    return DriftEstimate(
        potential_name=potential_name,
        n_transitions=int(delta.size),
        mean_drift=float(delta.mean()),
        negative_fraction=float(np.mean(delta < 0)),
        by_level=by_level,
    )
