"""Experiments T3 and T4: cross-validation and theory diagnostics.

T3 validates the fast round-based engine against the message-passing
execution; T4 validates the theory's premise (negative potential drift) and
shows QoS-obliviousness failing where it must.
"""

from __future__ import annotations

import numpy as np

from ..analysis.drift import estimate_drift
from ..core.potential import overload_potential, unsatisfied_count
from ..registry import build_instance, build_protocol
from ..sim.engine import run
from .common import ExperimentResult, cell, cell_spec, convergence_stats

__all__ = ["t3_msgsim", "t4_drift_and_oblivious", "t4_cells", "t5_tail"]


def t3_msgsim(
    *,
    n: int = 512,
    m: int = 32,
    slack: float = 0.25,
    n_reps: int = 10,
    max_rounds: int = 5_000,
    tick_interval: float = 1.0,
) -> ExperimentResult:
    """Table T3: round-based engine vs asynchronous message passing.

    Both executions run the same sampling protocol (p = 0.5) on the same
    instance distribution from the pile start.  Comparable quantities:

    - engine *rounds* vs message-sim *time in tick units* (a user activates
      about once per tick, so a tick is the asynchronous analogue of a
      round);
    - migrations per user;
    - satisfaction (both must reach 100% on this generous instance).

    Expected shape: same order of magnitude, message sim slightly slower
    (skipped activations while replies are in flight, stale quotes under
    channel delay).  Agreement here is the evidence that the fast engine
    faithfully simulates the distributed protocol.
    """
    from ..msgsim.runner import run_message_sim

    inst_kwargs = {"n": n, "m": m, "slack": slack}
    engine_rounds: list[float] = []
    engine_moves: list[float] = []
    engine_sat: list[float] = []
    for rep in range(n_reps):
        inst = build_instance("uniform_slack", **inst_kwargs)
        r = run(
            inst,
            build_protocol("qos-sampling"),
            seed=1000 + rep,
            max_rounds=max_rounds,
            initial="pile",
        )
        engine_rounds.append(r.rounds if r.status == "satisfying" else np.nan)
        engine_moves.append(r.total_moves / n)
        engine_sat.append(r.satisfied_fraction)

    msg_time: list[float] = []
    msg_moves: list[float] = []
    msg_sat: list[float] = []
    msg_msgs: list[float] = []
    for rep in range(n_reps):
        inst = build_instance("uniform_slack", **inst_kwargs)
        res = run_message_sim(
            inst,
            seed=2000 + rep,
            initial="pile",
            tick_interval=tick_interval,
            max_time=max_rounds * tick_interval,
        )
        msg_time.append(res.time / tick_interval if res.converged else np.nan)
        msg_moves.append(res.total_moves / n)
        msg_sat.append(res.n_satisfied / n)
        msg_msgs.append(res.total_messages / n)

    def med(xs):
        arr = np.asarray(xs, dtype=np.float64)
        arr = arr[~np.isnan(arr)]
        return float(np.median(arr)) if arr.size else None

    headers = ["execution", "sat%", "rounds/ticks (median)", "moves/user", "messages/user"]
    rows = [
        [
            "round engine",
            100 * float(np.mean(engine_sat)),
            med(engine_rounds),
            float(np.mean(engine_moves)),
            None,
        ],
        [
            "message sim",
            100 * float(np.mean(msg_sat)),
            med(msg_time),
            float(np.mean(msg_moves)),
            float(np.mean(msg_msgs)),
        ],
    ]
    findings = []
    er, mt = med(engine_rounds), med(msg_time)
    if er and mt:
        findings.append(f"time ratio (msg/engine): {mt / er:.2f}x")
    em, mm = float(np.mean(engine_moves)), float(np.mean(msg_moves))
    if em > 0:
        findings.append(f"move ratio (msg/engine): {mm / em:.2f}x")
    return ExperimentResult(
        experiment_id="T3",
        title=f"engine vs message-passing execution (n={n}, m={m}, slack={slack})",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={
            "engine_rounds": engine_rounds,
            "msg_time": msg_time,
            "engine_moves": engine_moves,
            "msg_moves": msg_moves,
        },
    )


def _t4_overload_arms(
    *, n: int, m: int, n_reps: int, max_rounds: int
) -> tuple[int, int, list[tuple[str, str, dict]]]:
    """T4 part (b) as data: ``(q, n_over, [(label, protocol, cell kwargs)])``.

    Shared by the runner and :func:`t4_cells` so the sweep orchestrator
    enumerates exactly the cells the runner executes (part (a)'s drift
    estimation is not cell-shaped and stays runner-only).
    """
    q = max(2, n // (2 * m))
    n_over = int(1.5 * m * q)
    gen_kwargs = {"n": n_over, "m": m, "q": float(q)}
    arms = []
    for label, proto in (
        ("qos-sampling", "qos-sampling"),
        ("permit", "permit"),
        ("selfish-rebalance (QoS-oblivious)", "selfish-rebalance"),
    ):
        arms.append(
            (
                label,
                proto,
                dict(
                    generator="overloaded",
                    generator_kwargs=gen_kwargs,
                    protocol=proto,
                    n_reps=n_reps,
                    max_rounds=max_rounds,
                    initial="pile",
                    label=f"t4-{label}",
                ),
            )
        )
    return q, n_over, arms


def t4_cells(
    _fn,
    *,
    n: int = 2048,
    m: int = 64,
    n_drift_runs: int = 8,
    n_reps: int = 10,
    max_rounds: int = 20_000,
) -> list:
    """T4's :attr:`~repro.experiments.ExperimentDef.cells`: the three
    overload arms of part (b).

    Part (a) (drift estimation) has no cell shape and would simulate in a
    dry run of the runner, so the arms come from
    :func:`_t4_overload_arms` instead; the runner argument and
    ``n_drift_runs`` are accepted and ignored.
    """
    del n_drift_runs
    _, _, arms = _t4_overload_arms(n=n, m=m, n_reps=n_reps, max_rounds=max_rounds)
    return [cell_spec(**kwargs) for _, _, kwargs in arms]


def t4_drift_and_oblivious(
    *,
    n: int = 2048,
    m: int = 64,
    n_drift_runs: int = 8,
    n_reps: int = 10,
    max_rounds: int = 20_000,
) -> ExperimentResult:
    """Table T4: (a) the drift premise, (b) QoS-awareness vs balancing.

    Part (a) estimates the conditional one-round drift of the overload
    potential and the unsatisfied count under the sampling protocol from
    the pile start — the theory's convergence arguments need it negative,
    and it is.

    Part (b) runs QoS-aware protocols and QoS-oblivious selfish
    rebalancing on an *overloaded* uniform instance (demand 1.5x the QoS
    capacity).  Expected shape: fair balancing spreads the overload evenly
    and pushes **every** user past its threshold — the classic congestion
    collapse — while QoS-aware protocols fill resources to capacity and
    stop, protecting close to OPT_sat = (m-1)*q users.  Balancing is the
    wrong objective precisely when QoS is scarce.
    """
    rows = []
    headers = ["measurement", "value", "detail"]

    inst = build_instance("uniform_slack", n=n, m=m, slack=0.1)
    drift_overload = estimate_drift(
        inst,
        build_protocol("qos-sampling"),
        overload_potential,
        potential_name="overload",
        n_runs=n_drift_runs,
        max_rounds=2_000,
        initial="pile",
    )
    drift_unsat = estimate_drift(
        inst,
        build_protocol("qos-sampling"),
        unsatisfied_count,
        potential_name="unsatisfied",
        n_runs=n_drift_runs,
        max_rounds=2_000,
        initial="pile",
    )
    rows.append(
        [
            "overload-potential drift",
            drift_overload.mean_drift,
            f"negative in {100 * drift_overload.negative_fraction:.0f}% of transitions "
            f"({drift_overload.n_transitions} transitions)",
        ]
    )
    rows.append(
        [
            "unsatisfied-count drift",
            drift_unsat.mean_drift,
            f"negative in {100 * drift_unsat.negative_fraction:.0f}% of transitions",
        ]
    )

    # Part (b): overload is where QoS-awareness and balancing part ways.
    # Fair balancing spreads n = 1.5*m*q users to ~1.5*q per resource —
    # everyone exceeds the threshold and *nobody* is satisfied.  QoS-aware
    # protocols fill resources up to capacity and then stop admitting:
    # they protect close to OPT_sat = (m-1)*q users (from the pile start;
    # see T2 for the initial-state dependence).
    q, n_over, arms = _t4_overload_arms(n=n, m=m, n_reps=n_reps, max_rounds=max_rounds)
    opt_sat = (m - 1) * q
    oblivious_stats = None
    for label, proto, kwargs in arms:
        stats = convergence_stats(cell(**kwargs))
        if proto == "selfish-rebalance":
            oblivious_stats = stats
        satisfied_users = stats["satisfied_fraction_mean"] * n_over
        rows.append(
            [
                f"overload satisfied/OPT_sat% [{label}]",
                100 * satisfied_users / opt_sat,
                f"{satisfied_users:.0f} of OPT_sat={opt_sat} "
                f"(n={n_over}, q={q}, quiescent {100 * stats['quiescent_fraction']:.0f}%)",
            ]
        )
    findings = [
        "drift of both potentials is negative — the premise of the "
        "expected-decrease convergence arguments holds empirically",
    ]
    if oblivious_stats is not None:
        findings.append(
            "under overload, fair balancing collapses everyone past the "
            "threshold (congestion collapse: ~0 satisfied) while QoS-aware "
            "protocols protect close to OPT_sat users"
        )
    return ExperimentResult(
        experiment_id="T4",
        title=f"drift premise + QoS-aware vs oblivious (n={n}, m={m})",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={
            "drift_overload": drift_overload,
            "drift_unsatisfied": drift_unsat,
        },
    )


def t5_tail(
    slacks=(0.25, 0.05),
    *,
    n: int = 2048,
    m: int = 64,
    n_reps: int = 400,
    delta: float = 0.1,
) -> "ExperimentResult":
    """Table T5: the convergence-time *distribution* (w.h.p. claims).

    The theory's statements are "T <= O(log n) with high probability"; the
    medians of F1 hide the tail.  This experiment replicates the sampling
    protocol heavily and reports, per slack level: median, p95, the
    distribution-free w.h.p. bound (DKW-certified ``P(T > t*) <= delta``
    at 95% confidence), and the fitted geometric tail rate (straggler
    probability per extra round) with its halving time.

    ``delta`` is the certified tail mass (``P(T > t*) <= delta`` at 95%
    confidence); the DKW sample-size requirement is
    ``n_reps >= ln(40)/(2 delta^2)`` (raise ``n_reps`` to tighten
    ``delta``).

    Expected shape: sharply concentrated distributions — the w.h.p. bound
    sits a small constant above the median, and the tail decays
    geometrically (R² near 1), faster for larger slack.
    """
    from ..analysis.distributions import geometric_tail_fit, whp_quantile
    from .common import ExperimentResult, cell

    headers = [
        "slack",
        "median",
        "p95",
        "whp t*",
        "tail rate/round",
        "halving time",
        "tail fit R²",
    ]
    rows = []
    tails: dict[float, float] = {}
    for slack in slacks:
        results = cell(
            generator="uniform_slack",
            generator_kwargs={"n": n, "m": m, "slack": slack},
            n_reps=n_reps,
            label=f"t5-{slack}",
        )
        rounds = np.asarray(
            [r.rounds for r in results if r.status == "satisfying"], dtype=np.float64
        )
        try:
            t_star = whp_quantile(rounds, delta=delta, gamma=0.05)
        except ValueError:
            t_star = None  # sample too small for the requested delta
        try:
            fit = geometric_tail_fit(rounds)
            rate, halving, r2 = fit.rate, fit.halving_time(), fit.r_squared
        except ValueError:
            rate, halving, r2 = None, None, None
        tails[slack] = rate if rate is not None else float("nan")
        rows.append(
            [
                slack,
                float(np.median(rounds)),
                float(np.quantile(rounds, 0.95)),
                t_star,
                rate,
                halving,
                r2,
            ]
        )
    findings = [
        "the w.h.p. bound sits within a few rounds of the median — "
        "convergence times concentrate hard",
    ]
    if len(slacks) >= 2 and all(np.isfinite(list(tails.values()))):
        findings.append(
            "larger slack decays the straggler tail faster: "
            + ", ".join(f"slack {s:g} -> rate {r:.2f}/round" for s, r in tails.items())
        )
    return ExperimentResult(
        experiment_id="T5",
        title=f"convergence-time distribution (n={n}, m={m}, {n_reps} reps, pile start)",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"tails": tails},
    )
