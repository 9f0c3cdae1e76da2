"""Experiments F4, F5, T2: heterogeneous users/resources and infeasibility."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.feasibility import max_satisfied
from ..registry import build_instance
from .common import ExperimentResult, cell, convergence_stats

__all__ = ["f4_hetero_users", "f5_hetero_resources", "t2_infeasible"]


def f4_hetero_users(
    *,
    n: int = 4096,
    m: int = 128,
    demanding_frac: float = 0.25,
    n_reps: int = 15,
    max_rounds: int = 50_000,
    protocols: Sequence[str] = ("qos-sampling", "permit", "best-response"),
) -> ExperimentResult:
    """Figure F4: heterogeneous threshold profiles.

    Three regimes, bracketing what selfish QoS dynamics can and cannot do:

    - ``staggered`` — every threshold is at least the average load
      plus one, so no user can ever be blocked (all users are
      *deadlock-free*, see :mod:`repro.core.stability`): all protocols
      reach full satisfaction; low-threshold users settle last.
    - ``zipf`` — power-law thresholds, scaled feasible: converges (the
      heavy high-threshold mass keeps doors open).
    - ``two-class trap`` — a few very demanding users (q = 2) among a
      tolerant crowd.  From a *random* start every non-empty resource
      already exceeds q = 2, so demanding users are blocked immediately:
      the run goes quiescent at ~(1 - n_demanding/n) satisfaction with
      zero moves.  The *pile* start briefly has empty resources, but the
      concurrent dispersal of the tolerant crowd refills every resource
      past q = 2 within a round — the trap persists (only the odd lucky
      demanding user grabs a seat).  Users whose threshold lies below the
      average load are structurally unservable by selfish dynamics:
      reaching the satisfying state would require *satisfied* users to
      evacuate resources, which threshold-satisfaction utilities never
      motivate (see :mod:`repro.core.stability`).
    """
    # Demanding users (q = 2) need half a dedicated resource each, so their
    # count is budgeted against m: a `demanding_frac` fraction of the
    # resources is reserved for them, pairs per resource.
    m_demanding = max(1, int(round(m * demanding_frac)))
    n_demanding = 2 * m_demanding
    n_tolerant = n - n_demanding
    m_tolerant = m - m_demanding
    q_tolerant = float(2 * ((n_tolerant + m_tolerant - 1) // m_tolerant))
    two_class_kwargs = {
        "n_demanding": n_demanding,
        "q_demanding": 2.0,
        "n_tolerant": n_tolerant,
        "q_tolerant": q_tolerant,
        "m": m,
    }
    # Staggered classes: the lowest threshold still clears the average
    # load, so every user is deadlock-free and full satisfaction is
    # guaranteed reachable.
    base = (n + m - 1) // m
    staggered_kwargs = {
        "n_demanding": n // 2,
        "q_demanding": float(base + 1),
        "n_tolerant": n - n // 2,
        "q_tolerant": float(4 * base),
        "m": m,
    }
    workloads = [
        ("staggered", "two_class", staggered_kwargs, "random"),
        ("zipf(a=1.5)", "zipf_thresholds", {"n": n, "m": m, "alpha": 1.5}, "random"),
        ("two-class trap (random)", "two_class", two_class_kwargs, "random"),
        ("two-class trap (pile)", "two_class", two_class_kwargs, "pile"),
    ]
    headers = [
        "workload",
        "protocol",
        "sat-runs%",
        "quiescent%",
        "satisfied%",
        "rounds (median)",
        "moves/user",
    ]
    rows = []
    stats_map: dict[tuple[str, str], dict] = {}
    for wl_label, gen, gen_kwargs, init in workloads:
        for proto in protocols:
            # Paired design: all protocol arms replay one seed stream per
            # workload (common random numbers), so arm contrasts are
            # protocol-only.
            stats = convergence_stats(
                cell(
                    generator=gen,
                    generator_kwargs=gen_kwargs,
                    protocol=proto,
                    n_reps=n_reps,
                    max_rounds=max_rounds,
                    initial=init,
                    label=f"f4-{wl_label}-{proto}",
                    seed_key=f"f4/{wl_label}",
                )
            )
            stats_map[(wl_label, proto)] = stats
            rows.append(
                [
                    wl_label,
                    proto,
                    100 * stats["satisfying_fraction"],
                    100 * stats["quiescent_fraction"],
                    100 * stats["satisfied_fraction_mean"],
                    stats["rounds_median"],
                    stats["moves_mean"] / n,
                ]
            )
    findings = [
        "quiescent runs end in stable-but-unsatisfying states "
        "(see repro.core.stability)",
        "the trap persists from both starts: below-average-threshold users "
        "are structurally unservable by selfish dynamics — the satisfying "
        "state needs satisfied users to move, which they never will",
    ]
    return ExperimentResult(
        experiment_id="F4",
        title=f"heterogeneous thresholds (n={n}, m={m})",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"stats": stats_map},
    )


def f5_hetero_resources(
    *,
    n: int = 4096,
    m: int = 128,
    n_reps: int = 15,
    max_rounds: int = 50_000,
    protocols: Sequence[str] = ("qos-sampling", "permit"),
) -> ExperimentResult:
    """Figure F5: heterogeneous resources (speeds, convex, queueing).

    Expected shape: convergence survives non-linear latencies; the M/M/1
    pole (one extra user flips a resource to useless) is the hardest
    family, and the conservative arrival check is what keeps the dynamics
    out of the pole.
    """
    workloads = [
        ("identical", "uniform_slack", {"n": n, "m": m, "slack": 0.25}),
        (
            "related(4x)",
            "related_speeds",
            {"n": n, "m": m, "slack": 0.25, "speed_ratio": 4.0},
        ),
        ("poly(d=2)", "polynomial_farm", {"n": n, "m": m, "degree": 2, "slack": 0.25}),
        ("mm1(rho=0.7)", "mm1_farm", {"n": n, "m": m, "utilisation": 0.7}),
    ]
    headers = [
        "resources",
        "protocol",
        "sat-runs%",
        "satisfied%",
        "rounds (median)",
        "ci90-lo",
        "ci90-hi",
        "moves/user",
    ]
    rows = []
    stats_map: dict[tuple[str, str], dict] = {}
    for wl_label, gen, gen_kwargs in workloads:
        for proto in protocols:
            # Paired protocol arms per resource family (common random
            # numbers; see experiments/common.cell).
            stats = convergence_stats(
                cell(
                    generator=gen,
                    generator_kwargs=gen_kwargs,
                    protocol=proto,
                    n_reps=n_reps,
                    max_rounds=max_rounds,
                    label=f"f5-{wl_label}-{proto}",
                    seed_key=f"f5/{wl_label}",
                )
            )
            stats_map[(wl_label, proto)] = stats
            rows.append(
                [
                    wl_label,
                    proto,
                    100 * stats["satisfying_fraction"],
                    100 * stats["satisfied_fraction_mean"],
                    stats["rounds_median"],
                    stats["rounds_ci_low"],
                    stats["rounds_ci_high"],
                    stats["moves_mean"] / n,
                ]
            )
    return ExperimentResult(
        experiment_id="F5",
        title=f"heterogeneous resources (n={n}, m={m}, pile start)",
        headers=headers,
        rows=rows,
        findings=[],
        extra={"stats": stats_map},
    )


def t2_infeasible(
    overload_factors: Sequence[float] = (1.1, 1.25, 1.5, 2.0),
    *,
    m: int = 64,
    q: int = 16,
    n_reps: int = 10,
    max_rounds: int = 20_000,
    protocols: Sequence[str] = ("qos-sampling", "permit", "best-response"),
) -> ExperimentResult:
    """Table T2: over-subscribed instances vs the OPT_sat bound.

    ``n = factor * m * q`` users compete with uniform threshold ``q``;
    OPT_sat is exactly ``(m-1) * q`` (at most ``m - 1`` resources can stay
    at load ``<= q`` when ``n > m*q``).  The column is priced by
    :func:`~repro.core.feasibility.max_satisfied`, whose O(m*n) segment DP
    is exact at every scale and returns a witness attaining it; tests
    assert the formula.

    Expected shape — a satisfaction-price-of-anarchy story, strongly
    initial-state dependent:

    - from the **pile** start, empty resources fill up to exactly capacity
      and then close; the permit protocol lands at ~100% of OPT_sat and
      damped sampling close to it (overshoot costs a few percent);
    - from the **random** start, typical loads already exceed ``q``
      everywhere, so almost no user can move: the dynamics freeze at a
      small fraction of OPT_sat, collapsing to ~0 as the overload factor
      reaches 2.  Stable states of overloaded instances can be arbitrarily
      far from OPT — the empirical face of an unbounded satisfaction price
      of anarchy.

    All runs go quiescent (the engine proves no move is available).
    Enumerating the cells simulates nothing but still builds each
    overloaded instance to price OPT_sat — about a millisecond per
    instance at ci sizes.
    """
    headers = [
        "n/(m*q)",
        "n",
        "start",
        "protocol",
        "OPT_sat",
        "satisfied (mean)",
        "% of OPT",
        "quiescent%",
        "rounds (median)",
    ]
    rows = []
    stats_map: dict[tuple[float, str, str], dict] = {}
    for factor in overload_factors:
        n = int(round(factor * m * q))
        inst = build_instance("overloaded", n=n, m=m, q=float(q))
        opt = max_satisfied(inst)
        for initial in ("pile", "random"):
            for proto in protocols:
                # Paired protocol arms per (factor, start) workload.
                results = cell(
                    generator="overloaded",
                    generator_kwargs={"n": n, "m": m, "q": float(q)},
                    protocol=proto,
                    n_reps=n_reps,
                    max_rounds=max_rounds,
                    initial=initial,
                    label=f"t2-{factor}-{initial}-{proto}",
                    seed_key=f"t2/{factor}/{initial}",
                )
                stats = convergence_stats(results)
                stats_map[(factor, initial, proto)] = stats
                mean_sat = float(np.mean([r.n_satisfied for r in results]))
                qrounds = [r.rounds for r in results if r.status == "quiescent"]
                rows.append(
                    [
                        factor,
                        n,
                        initial,
                        proto,
                        opt.n_satisfied,
                        mean_sat,
                        100 * mean_sat / opt.n_satisfied,
                        100 * stats["quiescent_fraction"],
                        float(np.median(qrounds)) if qrounds else stats["rounds_median"],
                    ]
                )
    findings = [
        "OPT_sat = (m-1)*q for uniform overloaded instances; the greedy "
        "witness attains it (see tests/test_feasibility.py)",
        "pile starts approach OPT_sat; random starts freeze far below it — "
        "stable states of overloaded instances can be arbitrarily bad",
    ]
    return ExperimentResult(
        experiment_id="T2",
        title=f"infeasible instances vs OPT_sat (m={m}, q={q})",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"stats": stats_map},
    )
