"""Experiments F7–F9 and F13: asynchrony, failures, restricted visibility,
and message loss."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..registry import build_instance, build_protocol
from ..sim.engine import run
from ..sim.events import ResourceFailure
from ..analysis.stats import summarize
from .common import ExperimentResult, cell, convergence_stats

__all__ = ["f7_asynchrony", "f8_failures", "f9_topology", "f13_msg_loss"]


def f7_asynchrony(
    alphas: Sequence[float] = (1.0, 0.5, 0.25, 0.125),
    partitions: Sequence[int] = (2, 4),
    *,
    n: int = 4096,
    m: int = 128,
    slack: float = 0.25,
    n_reps: int = 15,
    protocol: str = "qos-sampling",
) -> ExperimentResult:
    """Figure F7: activation schedules vs convergence time.

    Expected shape: convergence survives every fair schedule; the cost of
    α-activation is roughly a ``1/α`` slowdown (the normalised column
    ``rounds * α`` stays near the synchronous baseline), and deterministic
    block partitions behave like ``α = 1/k``.
    """
    headers = ["schedule", "sat%", "rounds (median)", "normalised", "moves/user"]
    rows = []
    norm: dict[str, float | None] = {}

    def add(label: str, schedule: str, schedule_kwargs: dict, scale: float) -> None:
        stats = convergence_stats(
            cell(
                generator="uniform_slack",
                generator_kwargs={"n": n, "m": m, "slack": slack},
                protocol=protocol,
                schedule=schedule,
                schedule_kwargs=schedule_kwargs,
                n_reps=n_reps,
                label=f"f7-{label}",
            )
        )
        med = stats["rounds_median"]
        normalised = None if med is None else med * scale
        norm[label] = normalised
        rows.append(
            [label, 100 * stats["satisfying_fraction"], med, normalised, stats["moves_mean"] / n]
        )

    for a in alphas:
        if a >= 1.0:
            add("synchronous", "synchronous", {}, 1.0)
        else:
            add(f"alpha({a:g})", "alpha", {"alpha": a}, a)
    for k in partitions:
        add(f"partition({k})", "partition", {"k": k}, 1.0 / k)

    findings = []
    base = norm.get("synchronous")
    if base:
        ratios = [v / base for lbl, v in norm.items() if v and lbl != "synchronous"]
        if ratios:
            findings.append(
                f"normalised rounds stay within {min(ratios):.2f}x–{max(ratios):.2f}x "
                "of the synchronous baseline (1/alpha slowdown law)"
            )
    return ExperimentResult(
        experiment_id="F7",
        title=f"asynchrony (n={n}, m={m}, slack={slack}, {protocol})",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"normalised": norm},
    )


def f8_failures(
    failure_counts: Sequence[int] = (1, 4, 16),
    *,
    n: int = 4096,
    m: int = 128,
    slack: float = 0.25,
    settle_rounds: int = 200,
    n_reps: int = 10,
    protocol: str = "qos-sampling",
    max_rounds: int = 50_000,
) -> ExperimentResult:
    """Figure F8: self-stabilisation after resource crashes.

    The system first converges (``settle_rounds`` is far beyond its fresh
    convergence time), then ``k`` resources crash simultaneously: their
    users are stranded on an infinite-latency resource and must re-home
    through the ordinary protocol — no repair path exists.  Measured:
    rounds from the crash to renewed full satisfaction on the surviving
    resources.  Expected shape: recovery time comparable to fresh
    convergence at the corresponding scale and growing mildly with the
    crash fraction.  (``k`` must stay below the slack capacity margin or
    the post-crash instance is infeasible.)
    """
    headers = [
        "failed resources",
        "sat%",
        "recovery rounds (median)",
        "ci90-lo",
        "ci90-hi",
        "total moves/user",
    ]
    rows = []
    all_recoveries: dict[int, list[float]] = {}
    for k in failure_counts:
        if k >= m:
            raise ValueError("cannot fail every resource")
        recoveries: list[float] = []
        moves: list[float] = []
        sat = 0
        for rep in range(n_reps):
            inst = build_instance("uniform_slack", n=n, m=m, slack=slack)
            events = [ResourceFailure(settle_rounds, r) for r in range(k)]
            result = run(
                inst,
                build_protocol(protocol),
                seed=10_000 * k + rep,
                max_rounds=max_rounds,
                initial="random",
                events=events,
            )
            if result.status == "satisfying" and result.recovery_rounds is not None:
                sat += 1
                recoveries.append(float(result.recovery_rounds))
                moves.append(result.total_moves / n)
        all_recoveries[k] = recoveries
        if recoveries:
            s = summarize(np.asarray(recoveries))
            rows.append(
                [k, 100 * sat / n_reps, s.median, s.ci_low, s.ci_high, float(np.mean(moves))]
            )
        else:
            rows.append([k, 100 * sat / n_reps, None, None, None, None])
    return ExperimentResult(
        experiment_id="F8",
        title=f"crash/recovery self-stabilisation (n={n}, m={m}, {protocol})",
        headers=headers,
        rows=rows,
        findings=[
            "recovery = rounds from the crash to renewed full satisfaction; "
            "crashed resources strand their users, who re-home via the ordinary protocol"
        ],
        extra={"recoveries": all_recoveries},
    )


def f9_topology(
    topologies: Sequence[str] = ("complete", "random-regular", "barabasi-albert", "torus", "ring"),
    *,
    n: int = 2048,
    m: int = 64,
    slack: float = 0.4,
    n_reps: int = 15,
    max_rounds: int = 200_000,
) -> ExperimentResult:
    """Figure F9: one-hop visibility on resource graphs.

    Users sample only neighbours of their current resource.  Expected
    shape: denser/lower-diameter graphs converge faster; the ring pays
    roughly its diameter; all connected topologies still converge (the
    instance is generous, so no stable traps exist).
    """
    headers = ["topology", "sat%", "rounds (median)", "ci90-lo", "ci90-hi", "moves/user"]
    rows = []
    medians: dict[str, float | None] = {}
    for topo in topologies:
        stats = convergence_stats(
            cell(
                generator="uniform_slack",
                generator_kwargs={"n": n, "m": m, "slack": slack},
                protocol="neighborhood",
                protocol_kwargs={"topology": topo, "m": m},
                n_reps=n_reps,
                max_rounds=max_rounds,
                label=f"f9-{topo}",
            )
        )
        medians[topo] = stats["rounds_median"]
        rows.append(
            [
                topo,
                100 * stats["satisfying_fraction"],
                stats["rounds_median"],
                stats["rounds_ci_low"],
                stats["rounds_ci_high"],
                stats["moves_mean"] / n,
            ]
        )
    findings = []
    if medians.get("complete") and medians.get("ring"):
        findings.append(
            f"ring/complete slowdown: {medians['ring'] / medians['complete']:.1f}x "
            f"(diameter effect, m={m})"
        )
    return ExperimentResult(
        experiment_id="F9",
        title=f"restricted visibility (n={n}, m={m}, slack={slack}, pile start)",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"medians": medians},
    )


def f13_msg_loss(
    p_losses: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.2),
    *,
    n: int = 192,
    m: int = 16,
    slack: float = 0.25,
    n_reps: int = 5,
    tick_interval: float = 1.0,
    max_time: float = 2_000.0,
    p_duplicate: float = 0.02,
    p_reorder: float = 0.02,
) -> ExperimentResult:
    """Figure F13: graceful degradation of the message protocol under loss.

    The message-passing execution (see T3) runs over a
    :class:`~repro.msgsim.network.Network` whose fault plan drops each
    transmission i.i.d. with probability ``p_loss`` (plus light
    duplication and heavy-tailed reordering), and the agents answer with
    the self-healing layer: request ids, acks, bounded retransmission,
    watchdogs.  Measured per loss rate: satisfaction, convergence time in
    tick units, protocol messages per user (the retransmission overhead),
    retries per user, and the load-conservation verdict.

    Expected shape: p_loss = 0 reproduces the fault-free trajectory
    **bit-for-bit** (checked in ``extra["bitexact_p0"]``); for
    p_loss <= 0.2 every run still converges to full satisfaction with
    conservation intact — time and message cost grow with the loss rate
    (the degradation is graceful), which is the self-healing claim.
    """
    from ..msgsim.faults import FaultPlan
    from ..msgsim.runner import run_message_sim

    headers = [
        "p_loss",
        "sat%",
        "ticks (median)",
        "msgs/user",
        "retries/user",
        "dropped/user",
        "conserved",
    ]
    rows = []
    medians: dict[float, float | None] = {}
    bitexact = True
    all_converged = True
    all_conserved = True

    def fingerprint(res) -> tuple:
        return (
            round(res.time, 9),
            res.total_messages,
            res.total_moves,
            tuple(int(a) for a in res.final_state.assignment),
        )

    for p in p_losses:
        times: list[float] = []
        msgs: list[float] = []
        retries: list[float] = []
        dropped: list[float] = []
        sat = 0
        conserved = 0
        for rep in range(n_reps):
            inst = build_instance("uniform_slack", n=n, m=m, slack=slack)
            kwargs = dict(
                seed=3000 + rep,
                initial="pile",
                tick_interval=tick_interval,
                max_time=max_time,
            )
            plan = FaultPlan(
                p_drop=p,
                p_duplicate=p_duplicate if p > 0 else 0.0,
                p_reorder=p_reorder if p > 0 else 0.0,
                seed=17,
            )
            res = run_message_sim(inst, fault_plan=plan, **kwargs)
            if p == 0.0:
                # The null plan must reproduce the plain-Network run
                # bit-for-bit: same trajectory, same final assignment.
                baseline = run_message_sim(inst, **kwargs)
                if fingerprint(res) != fingerprint(baseline):
                    bitexact = False
            if res.converged:
                sat += 1
                times.append(res.time / tick_interval)
            else:
                all_converged = False
            if res.conservation_ok:
                conserved += 1
            else:
                all_conserved = False
            msgs.append(res.total_messages / n)
            retries.append(res.retries / n)
            dropped.append(res.fault_counts.get("dropped", 0) / n)
        med = float(np.median(times)) if times else None
        medians[p] = med
        rows.append(
            [
                p,
                100 * sat / n_reps,
                med,
                float(np.mean(msgs)),
                float(np.mean(retries)),
                float(np.mean(dropped)),
                f"{conserved}/{n_reps}",
            ]
        )

    findings = []
    findings.append(
        "p_loss=0 reproduces the fault-free execution bit-for-bit"
        if bitexact
        else "WARNING: null fault plan diverged from the fault-free execution"
    )
    if all_converged and all_conserved:
        findings.append(
            f"all runs converge to 100% satisfaction with load conservation "
            f"intact up to p_loss={max(p_losses):g} (no deadlocks, no lost moves)"
        )
    msg_costs = [row[3] for row in rows]
    if len(msg_costs) >= 2 and msg_costs[0] > 0:
        findings.append(
            f"message overhead grows gracefully: {msg_costs[-1] / msg_costs[0]:.2f}x "
            f"at p_loss={p_losses[-1]:g} vs lossless"
        )
    return ExperimentResult(
        experiment_id="F13",
        title=(
            f"self-healing under message loss "
            f"(n={n}, m={m}, slack={slack}, sampling, pile start)"
        ),
        headers=headers,
        rows=rows,
        findings=findings,
        extra={
            "bitexact_p0": bitexact,
            "all_converged": all_converged,
            "all_conserved": all_conserved,
            "medians": medians,
        },
    )
