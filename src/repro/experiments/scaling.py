"""Experiments F1–F3: convergence-time scaling laws.

The headline theorem shape of this literature: with constant slack, the
randomized sampling protocol reaches a satisfying state in a number of
rounds logarithmic in the number of users, independent of how adversarial
the initial state is.  These experiments sweep ``n``, the slack, and ``m``
and fit growth laws to the measured medians.
"""

from __future__ import annotations

from typing import Sequence

from ..analysis.scaling import classify_growth
from .common import ExperimentResult, cell, convergence_stats

__all__ = ["f1_scaling_n", "f2_slack", "f3_scaling_m", "f14_scaling_huge"]


def f1_scaling_n(
    ns: Sequence[int] = (250, 500, 1000, 2000, 4000, 8000, 16000),
    *,
    users_per_resource: int = 32,
    slack: float = 0.25,
    n_reps: int = 15,
    protocol: str = "qos-sampling",
) -> ExperimentResult:
    """Figure F1: rounds to satisfaction vs ``n`` (fixed slack, fixed n/m).

    Expected shape: logarithmic growth (the fitted verdict is recorded in
    the findings and asserted by the F1 bench).
    """
    headers = ["n", "m", "sat%", "rounds (median)", "ci90-lo", "ci90-hi", "moves/user"]
    rows = []
    medians = []
    for n in ns:
        m = max(2, n // users_per_resource)
        stats = convergence_stats(
            cell(
                generator="uniform_slack",
                generator_kwargs={"n": n, "m": m, "slack": slack},
                protocol=protocol,
                n_reps=n_reps,
                label=f"f1-n{n}",
            )
        )
        medians.append(stats["rounds_median"])
        rows.append(
            [
                n,
                m,
                100 * stats["satisfying_fraction"],
                stats["rounds_median"],
                stats["rounds_ci_low"],
                stats["rounds_ci_high"],
                stats["moves_mean"] / n,
            ]
        )
    findings = []
    verdict = None
    if all(v is not None for v in medians) and len(medians) >= 3:
        growth = classify_growth(list(ns), medians)
        verdict = growth["verdict"]
        findings.append(f"growth verdict: {verdict}; best fit {growth['best']}")
        findings.append(
            "fits: "
            + "; ".join(f"{k}: {f}" for k, f in growth["fits"].items() if f is not None)
        )
    return ExperimentResult(
        experiment_id="F1",
        title=f"rounds vs n (slack={slack}, n/m={users_per_resource}, {protocol}, pile start)",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"medians": medians, "ns": list(ns), "verdict": verdict},
    )


def f2_slack(
    slacks: Sequence[float] = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5),
    *,
    n: int = 4096,
    m: int = 128,
    n_reps: int = 15,
    protocol: str = "qos-sampling",
) -> ExperimentResult:
    """Figure F2: rounds to satisfaction vs multiplicative slack.

    Expected shape: monotone decrease in slack, with the tight end
    (``slack = 0``, i.e. ``q = n/m`` exactly: only perfectly balanced
    states satisfy) the most expensive.
    """
    headers = ["slack", "q", "sat%", "rounds (median)", "ci90-lo", "ci90-hi", "moves/user"]
    rows = []
    medians = []
    import math

    for s in slacks:
        q = math.ceil(n / (m * (1.0 - s))) if s > 0 else n // m
        gen = (
            {"generator": "tight_uniform", "generator_kwargs": {"n": n, "m": m}}
            if s == 0.0 and n % m == 0
            else {
                "generator": "uniform_slack",
                "generator_kwargs": {"n": n, "m": m, "slack": s},
            }
        )
        stats = convergence_stats(
            cell(
                **gen,
                protocol=protocol,
                n_reps=n_reps,
                label=f"f2-s{s}",
            )
        )
        medians.append(stats["rounds_median"])
        rows.append(
            [
                s,
                q,
                100 * stats["satisfying_fraction"],
                stats["rounds_median"],
                stats["rounds_ci_low"],
                stats["rounds_ci_high"],
                stats["moves_mean"] / n,
            ]
        )
    findings = []
    if all(v is not None for v in medians) and len(medians) >= 2:
        findings.append(
            f"tight/loose ratio: {medians[0] / max(medians[-1], 1e-12):.2f}x "
            f"(tight end {medians[0]:g} rounds vs {medians[-1]:g})"
        )
    return ExperimentResult(
        experiment_id="F2",
        title=f"rounds vs slack (n={n}, m={m}, {protocol}, pile start)",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"medians": medians, "slacks": list(slacks)},
    )


def f3_scaling_m(
    ms: Sequence[int] = (8, 16, 32, 64, 128, 256),
    *,
    users_per_resource: int = 32,
    slack: float = 0.25,
    n_reps: int = 15,
    protocol: str = "qos-sampling",
) -> ExperimentResult:
    """Figure F3: rounds vs ``m`` at a fixed load factor ``n/m``.

    Expected shape: slow (at most logarithmic) growth — the dynamics are
    governed by the per-resource picture, not the fleet size.
    """
    headers = ["m", "n", "sat%", "rounds (median)", "ci90-lo", "ci90-hi", "moves/user"]
    rows = []
    medians = []
    for m in ms:
        n = m * users_per_resource
        stats = convergence_stats(
            cell(
                generator="uniform_slack",
                generator_kwargs={"n": n, "m": m, "slack": slack},
                protocol=protocol,
                n_reps=n_reps,
                label=f"f3-m{m}",
            )
        )
        medians.append(stats["rounds_median"])
        rows.append(
            [
                m,
                n,
                100 * stats["satisfying_fraction"],
                stats["rounds_median"],
                stats["rounds_ci_low"],
                stats["rounds_ci_high"],
                stats["moves_mean"] / n,
            ]
        )
    findings = []
    if all(v is not None for v in medians) and len(medians) >= 3:
        growth = classify_growth(list(ms), medians)
        findings.append(f"growth in m verdict: {growth['verdict']} ({growth['best']})")
    return ExperimentResult(
        experiment_id="F3",
        title=f"rounds vs m (n/m={users_per_resource}, slack={slack}, {protocol})",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"medians": medians, "ms": list(ms)},
    )


def f14_scaling_huge(
    ns: Sequence[int] = (1_000, 10_000, 100_000, 1_000_000),
    *,
    users_per_resource: int = 100,
    slack: float = 0.25,
    n_reps: int = 5,
    protocol: str = "qos-sampling",
    max_rounds: int = 512,
) -> ExperimentResult:
    """Figure F14: the huge-n scaling law — rounds vs n across 10^3…10^6.

    The strongest form of the paper's asymptotic claim: with constant
    slack and a fixed load factor, rounds-to-satisfaction from the
    adversarial pile start should stay logarithmic in ``n`` across three
    decades, into the million-user regime the dtype/memory audit makes
    simulable in one replication.  Runs through the sweep orchestrator
    like every cell-based experiment, so a full-scale sweep is resumable
    and its largest cells are cached individually.
    ``max_rounds`` is a guardrail, not a horizon — pile starts satisfy in
    tens of rounds at these sizes.
    """
    headers = ["n", "m", "sat%", "rounds (median)", "ci90-lo", "ci90-hi", "moves/user"]
    rows = []
    medians = []
    for n in ns:
        m = max(2, n // users_per_resource)
        stats = convergence_stats(
            cell(
                generator="uniform_slack",
                generator_kwargs={"n": n, "m": m, "slack": slack},
                protocol=protocol,
                max_rounds=max_rounds,
                n_reps=n_reps,
                label=f"f14-n{n}",
            )
        )
        medians.append(stats["rounds_median"])
        rows.append(
            [
                n,
                m,
                100 * stats["satisfying_fraction"],
                stats["rounds_median"],
                stats["rounds_ci_low"],
                stats["rounds_ci_high"],
                stats["moves_mean"] / n,
            ]
        )
    findings = []
    verdict = None
    if all(v is not None for v in medians) and len(medians) >= 3:
        growth = classify_growth(list(ns), medians)
        verdict = growth["verdict"]
        findings.append(f"growth verdict: {verdict}; best fit {growth['best']}")
        findings.append(
            "fits: "
            + "; ".join(f"{k}: {f}" for k, f in growth["fits"].items() if f is not None)
        )
    return ExperimentResult(
        experiment_id="F14",
        title=(
            f"rounds vs n across decades (slack={slack}, "
            f"n/m={users_per_resource}, {protocol}, pile start)"
        ),
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"medians": medians, "ns": list(ns), "verdict": verdict},
    )
