"""Extension experiments F10 and F11 (beyond the reconstructed paper).

- **F10** — the power of d choices (Mitzenmacher's two-choices paradigm):
  does probing ``d`` resources per activation pay for itself?
- **F11** — the fluid limit: the discrete dynamics' unsatisfied-fraction
  trajectory converges to the deterministic mean-field map of
  :mod:`repro.fluid` as ``n`` grows (law of large numbers), with the
  per-run deviation shrinking like ``n**(-1/2)``.
- **F12** — the open system: Poisson arrivals / geometric departures; the
  steady-state satisfied fraction as a function of the offered load
  ``rho``, across the critical point ``rho = 1``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..analysis.scaling import fit_power
from ..fluid.model import FluidSystem, run_fluid
from ..registry import build_instance, build_protocol
from ..sim.engine import run as run_engine
from ..sim.metrics import Recorder
from ..sim.rng import seed_from_key
from .common import ExperimentResult, cell, convergence_stats

__all__ = ["f10_multi_probe", "f11_fluid_limit", "f12_churn"]


def f10_multi_probe(
    ds: Sequence[int] = (1, 2, 4, 8),
    *,
    n: int = 4096,
    m: int = 128,
    slack: float = 0.05,
    n_reps: int = 15,
    max_rounds: int = 20_000,
) -> ExperimentResult:
    """Figure F10: probe count ``d`` vs rounds and message bill.

    Run on a *low-slack* instance (seats scarce — where extra probes should
    matter most).  Measured shape: the classic two-choices jump from
    ``d = 1`` to ``d = 2`` — and then a **reversal**: at ``d >= 4`` every
    unsatisfied user reliably locates the same emptiest resources and the
    max-headroom tie-break concentrates the whole herd on them, so
    overshoot (and rounds) *grow* with ``d``.  More information without
    more randomness re-creates exactly the herding that damping exists to
    prevent; ``d = 2`` is the sweet spot.  Messages per activation grow
    linearly in ``d`` on top of that.

    ``d = 1`` coincides with the plain sampling protocol up to
    tie-breaking, included as the anchor.
    """
    headers = [
        "d",
        "sat%",
        "rounds (median)",
        "ci90-lo",
        "ci90-hi",
        "moves/user",
        "messages/user",
    ]
    rows = []
    medians: dict[int, float | None] = {}
    messages: dict[int, float] = {}
    for d in ds:
        stats = convergence_stats(
            cell(
                generator="uniform_slack",
                generator_kwargs={"n": n, "m": m, "slack": slack},
                protocol="multi-probe",
                protocol_kwargs={"d": d},
                n_reps=n_reps,
                max_rounds=max_rounds,
                label=f"f10-d{d}",
            )
        )
        medians[d] = stats["rounds_median"]
        messages[d] = stats["messages_mean"] / n
        rows.append(
            [
                d,
                100 * stats["satisfying_fraction"],
                stats["rounds_median"],
                stats["rounds_ci_low"],
                stats["rounds_ci_high"],
                stats["moves_mean"] / n,
                stats["messages_mean"] / n,
            ]
        )
    findings = []
    if medians.get(1) and medians.get(2):
        findings.append(
            f"two-choices jump: d=2 needs {medians[2] / medians[1]:.2f}x the "
            f"rounds of d=1 at {messages[2] / max(messages[1], 1e-9):.2f}x the messages"
        )
    if len([v for v in medians.values() if v]) >= 3:
        best_d = min((d for d, v in medians.items() if v), key=lambda d: medians[d])
        findings.append(f"round-optimal probe count: d={best_d}")
    return ExperimentResult(
        experiment_id="F10",
        title=f"power of d choices (n={n}, m={m}, slack={slack}, pile start)",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"medians": medians, "messages": messages},
    )


def f11_fluid_limit(
    ns: Sequence[int] = (1000, 4000, 16000, 64000),
    *,
    m: int = 32,
    slack: float = 0.25,
    n_reps: int = 10,
    max_rounds: int = 200,
) -> ExperimentResult:
    """Figure F11: discrete dynamics vs the deterministic fluid limit.

    For each ``n`` the discrete sampling protocol runs from the pile start
    on the uniform-slack instance; its per-round unsatisfied *fraction*
    trajectory is compared against the mean-field map of
    :class:`repro.fluid.FluidSystem` with the matching threshold fraction.
    Reported: the maximum per-round deviation of single runs (mean ± over
    replicates) and of the replicate-averaged trajectory.  Expected shape:
    single-run deviation decays like ``n**(-1/2)`` (CLT fluctuations); the
    averaged trajectory decays faster.
    """
    import math

    headers = [
        "n",
        "fluid rounds",
        "max dev (single run, mean)",
        "max dev (averaged traj)",
    ]
    rows = []
    single_devs: list[float] = []
    for n in ns:
        q = math.ceil(n / (m * (1.0 - slack)))
        system = FluidSystem(
            m=m, thetas=np.asarray([q / n]), masses=np.asarray([1.0]), p=0.5
        )
        fluid = run_fluid(system, initial="pile", max_rounds=max_rounds, eps=0.0)
        # fluid.unsatisfied[t] is the state BEFORE round t; the recorder
        # logs AFTER each round, so discrete round t aligns with fluid
        # index t + 1.
        horizon = min(fluid.rounds - 1, max_rounds)
        fluid_series = fluid.unsatisfied[1 : horizon + 1]

        per_run = []
        mean_traj = np.zeros(horizon)
        for rep in range(n_reps):
            recorder = Recorder()
            run_engine(
                build_instance("uniform_slack", n=n, m=m, slack=slack),
                build_protocol("qos-sampling"),
                seed=1000 * rep + 7,
                initial="pile",
                max_rounds=max_rounds,
                recorder=recorder,
            )
            d = recorder.finalize().n_unsatisfied.astype(np.float64) / n
            padded = np.zeros(horizon)
            upto = min(d.size, horizon)
            padded[:upto] = d[:upto]
            per_run.append(float(np.max(np.abs(padded - fluid_series))))
            mean_traj += padded / n_reps
        avg_dev = float(np.max(np.abs(mean_traj - fluid_series)))
        single = float(np.mean(per_run))
        single_devs.append(single)
        rows.append([n, fluid.rounds - 1, single, avg_dev])

    findings = []
    if len(ns) >= 3 and all(v > 0 for v in single_devs):
        fit = fit_power(list(ns), single_devs)
        findings.append(
            f"single-run deviation decays like n^{fit.params[1]:.2f} "
            f"(R²={fit.r_squared:.3f}; CLT predicts -0.5)"
        )
    return ExperimentResult(
        experiment_id="F11",
        title=f"fluid-limit validation (m={m}, slack={slack}, pile start)",
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"single_devs": single_devs, "ns": list(ns)},
    )


def f12_churn(
    rhos: Sequence[float] = (0.5, 0.7, 0.85, 0.95, 1.05, 1.2),
    *,
    m: int = 64,
    q: int = 16,
    departure_prob: float = 0.05,
    rounds: int = 600,
    warmup: int = 150,
    n_reps: int = 5,
    protocols: Sequence[str] = ("qos-sampling", "permit"),
) -> ExperimentResult:
    """Figure F12: steady-state QoS under churn vs offered load.

    Offered load ``rho = expected population / (m * q)``; expected
    population is ``arrival_rate / departure_prob``.  Expected shape:

    - ``rho`` well below 1: satisfied fraction ~1 (the protocol re-seats
      the churn with a couple of moves per round);
    - approaching 1: a soft shoulder (queueing-style fluctuations push the
      population past capacity intermittently);
    - past 1: smooth degradation, clearly *better* than the frozen
      closed-system overload of T2's random starts (departures keep
      freeing seats) but also clearly *below* the physical bound
      ``min(1, 1/rho)``: under sustained overload most resources sit above
      the threshold most of the time and only freshly vacated seats serve
      anyone.  The bound column quantifies the remaining gap an admission
      policy could close.
    """
    from ..sim.opensystem import run_open_system

    headers = [
        "rho",
        "protocol",
        "mean population",
        "steady sat%",
        "p10 sat%",
        "bound min(1,1/rho)%",
        "moves/round",
    ]
    rows = []
    stats: dict[tuple[float, str], float] = {}
    for rho in rhos:
        lam = rho * m * q * departure_prob
        for proto in protocols:
            sats, p10s, pops, mv = [], [], [], []
            for rep in range(n_reps):
                # Seed keyed by (rho, rep) but NOT by protocol: the two
                # arms replay the same arrival/departure stream (common
                # random numbers).  The previous ``hash((rho, proto))``
                # seed was also irreproducible across interpreter runs —
                # str hashing is salted by PYTHONHASHSEED.
                result = run_open_system(
                    m=m,
                    arrival_rate=lam,
                    departure_prob=departure_prob,
                    threshold_sampler=float(q),
                    protocol=build_protocol(proto),
                    rounds=rounds,
                    warmup=warmup,
                    seed=seed_from_key(50_000, "f12", f"{rho:g}", str(rep)),
                )
                sats.append(result.steady_satisfied_fraction)
                p10s.append(result.p10_satisfied_fraction)
                pops.append(result.mean_population)
                mv.append(result.moves_per_round)
            stats[(rho, proto)] = float(np.mean(sats))
            rows.append(
                [
                    rho,
                    proto,
                    float(np.mean(pops)),
                    100 * float(np.mean(sats)),
                    100 * float(np.mean(p10s)),
                    100 * min(1.0, 1.0 / rho),
                    float(np.mean(mv)),
                ]
            )
    findings = [
        "churn rescues overload: departures keep freeing seats, so the "
        "open system degrades gracefully where the frozen closed system "
        "(T2, random starts) collapses",
    ]
    return ExperimentResult(
        experiment_id="F12",
        title=(
            f"steady-state QoS under churn (m={m}, q={q}, "
            f"departure_prob={departure_prob:g})"
        ),
        headers=headers,
        rows=rows,
        findings=findings,
        extra={"stats": stats},
    )
