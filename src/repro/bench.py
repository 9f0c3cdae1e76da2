"""Machine-readable benchmark harness (``python -m repro bench``).

Every speed claim in this repo is a cell of this harness, and
``repro-qoslb trend --gate`` (:mod:`repro.obs.regress`) judges cells
across artifacts.  A cell is a few named *legs* — zero-argument callables
timed by the one clock in this module, :func:`time_legs` — plus the
figures derived from those timings.  Each cell describes itself
(schema ``bench-engine/v2``)::

    {"name": "engine/batched/sampling/sync", "kind": "batched",
     "headline": "speedup_vs_serial", "unit": "x vs serial",
     "higher_is_better": true,
     "legs": {"serial": {"seconds": ..., "cpu_seconds": ...},
              "batched": {"seconds": ..., "cpu_seconds": ...}},
     "speedup_vs_serial": ..., "user_rounds_per_sec": ...,
     "minor_faults": ..., "sys_s": ..., ...}

``headline`` names one of the cell's own numeric fields; trend and gate
follow it with the declared direction.  ``kind`` is a plain label.

Cell families:

- ``unit/*``, ``weighted/*``, ``access/*`` (engine): protocol
  rounds/second of one scalar run per registered protocol family,
  schedule style and instance class;
- ``engine/step/sampling/sync``: one synchronous
  ``QoSSamplingProtocol.step`` round on a copy of the pile state, as
  user-rounds/second (the per-round cost, without a run around it);
- ``replicate/sampling/serial``: whole-replication throughput of the
  scalar reference (:func:`repro.sim.parallel.run_spec` per rep);
- ``engine/batched/*``: :func:`repro.sim.batch.replicate_batched` vs the
  scalar reference on one engine cell's spec, as ``speedup_vs_serial``,
  with the batched leg's page faults and system time beside it;
- ``replicate/hybrid``: :func:`repro.sim.parallel.replicate` over the
  process pool (processes × batch) vs single-process batched;
- ``query/satisfied-mask``: ``State.satisfied_mask`` calls/second with
  the generation-counter cache enabled vs disabled;
- ``runs/overhead``: the sweep orchestrator on 1 vs 2 workers, plus a
  fully cached re-run (see :mod:`repro.runs`);
- ``obs/aggregate``: the sweep-timeline merge over a synthetic 200-cell
  sweep's event files;
- ``obs/overhead@*``: the telemetry hub's per-round cost, disabled,
  enabled and counter-sampled (see :mod:`repro.obs`);
- ``startup/import``: a fresh interpreter importing ``repro`` and
  ``repro.sim.parallel`` (the cold start every CLI call, sweep worker
  and pool child pays), as ``import_s``, lower is better;
- ``engine/huge/*``: one million-user replication under ``tracemalloc``
  against a pinned memory ceiling (``--scale full`` or ``--only``).

Results go to ``BENCH_engine.json`` (repo root by convention) plus an
ASCII table on stdout; the JSON also records the interpreter and NumPy
versions so regressions can be attributed.

Usage::

    python -m repro bench                    # smoke scale, BENCH_engine.json
    python -m repro bench --scale full       # larger cells, more repeats
    python -m repro bench --out /tmp/b.json  # custom output path
    python -m repro bench --out history/     # dated artifact in a directory
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from functools import partial
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .obs import provenance_stamp
from .obs.trend import BENCH_SCHEMA, _fmt

__all__ = ["ENGINE_CELLS", "time_legs", "run_bench", "render_bench", "main"]

# Each engine cell: name + registry names/kwargs, per scale.  The cells
# deliberately cover unit/weighted instances, complete and restricted
# access, all protocol families and both schedule styles, so a regression
# on any hot path shows up in at least one row.
ENGINE_CELLS: list[dict[str, Any]] = [
    {
        "name": "unit/sampling/sync",
        "generator": "uniform_slack",
        "protocol": "qos-sampling",
        "schedule": "synchronous",
    },
    {
        "name": "unit/sampling/alpha",
        "generator": "uniform_slack",
        "protocol": "qos-sampling",
        "schedule": "alpha",
        "schedule_kwargs": {"alpha": 0.5},
    },
    {
        "name": "unit/sampling-slackrate/sync",
        "generator": "uniform_slack",
        "protocol": "qos-sampling",
        "protocol_kwargs": {"rate": {"name": "slack-proportional"}},
        "schedule": "synchronous",
    },
    {
        "name": "weighted/sampling/sync",
        "generator": "weighted_uniform",
        "protocol": "qos-sampling",
        "schedule": "synchronous",
    },
    {
        "name": "access/sampling/sync",
        "generator": "random_access",
        "protocol": "qos-sampling",
        "schedule": "synchronous",
    },
    {
        "name": "unit/multi-probe/sync",
        "generator": "uniform_slack",
        "protocol": "multi-probe",
        "protocol_kwargs": {"d": 2},
        "schedule": "synchronous",
    },
    {
        "name": "unit/permit/sync",
        "generator": "uniform_slack",
        "protocol": "permit",
        "schedule": "synchronous",
    },
    {
        "name": "unit/multi-probe/alpha",
        "generator": "uniform_slack",
        "protocol": "multi-probe",
        "protocol_kwargs": {"d": 2},
        "schedule": "alpha",
        "schedule_kwargs": {"alpha": 0.5},
    },
    {
        "name": "unit/permit/alpha",
        "generator": "uniform_slack",
        "protocol": "permit",
        "schedule": "alpha",
        "schedule_kwargs": {"alpha": 0.25},
    },
    {
        "name": "unit/neighborhood/sync",
        "generator": "uniform_slack",
        "protocol": "neighborhood",
        "protocol_kwargs": {"topology": "random-regular"},
        "schedule": "synchronous",
    },
    {
        "name": "unit/blind-random/sync",
        "generator": "uniform_slack",
        "protocol": "blind-random",
        "schedule": "synchronous",
    },
    {
        "name": "unit/sweep-best-response/sync",
        "generator": "uniform_slack",
        "protocol": "sweep-best-response",
        "schedule": "synchronous",
    },
    {
        "name": "unit/best-response/sync",
        "generator": "uniform_slack",
        "protocol": "best-response",
        "schedule": "synchronous",
    },
]

#: Scale presets: instance size, engine round budget and timing repeats.
SCALES: dict[str, dict[str, int]] = {
    "smoke": {"n": 2_000, "m": 64, "max_rounds": 64, "repeats": 2, "reps": 4},
    "full": {"n": 50_000, "m": 1_024, "max_rounds": 128, "repeats": 3, "reps": 8},
}

#: Pinned peak-tracemalloc budget for one million-user replication
#: (instance build + full run).  Measured 35.3 MiB (NumPy 2.4, Linux
#: x86-64) with the uniform threshold and unit-weight columns stored as
#: zero-stride views (50.6 MiB with each stored n times).  64 MiB
#: leaves room for NumPy-version jitter while still catching any
#: full-width per-mover regression (pre-audit layouts blow well past
#: it).  CI's guardrail fails at 1.2x this value.
HUGE_MEMORY_CEILING_BYTES = 64 * 1024 * 1024

#: Budget for the same replication on a ``sparse_access`` instance
#: (degree 4), whose CSR access map is the largest build at this size.
#: Measured 91.6 MiB (NumPy 2.4, Linux x86-64); 101 MiB is that plus
#: 10%.  CI's 1.2x (121 MiB) stays below the 128.6 MiB a build with
#: full-width int64 temporaries in ``sparse_access`` and
#: ``AccessMap.from_csr`` peaks at, so the guardrail catches their return.
SPARSE_ACCESS_MEMORY_CEILING_BYTES = 101 * 1024 * 1024

#: Million-user single-replication cells (the ROADMAP's scale milestone).
#: Run at ``--scale full`` or when selected explicitly via ``--only``;
#: each carries its memory ceiling into the payload so trend tooling and
#: the CI guardrail read the budget from the same place.
HUGE_CELLS: list[dict[str, Any]] = [
    {
        "name": "engine/huge/sampling/sync",
        "generator": "uniform_slack",
        "generator_kwargs": {"n": 1_000_000, "m": 1_024, "slack": 0.25},
        "protocol": "qos-sampling",
        "schedule": "synchronous",
        "max_rounds": 256,
        "memory_ceiling_bytes": HUGE_MEMORY_CEILING_BYTES,
    },
    {
        "name": "engine/huge/sparse-access/sync",
        "generator": "sparse_access",
        "generator_kwargs": {"n": 1_000_000, "m": 1_024},
        "protocol": "qos-sampling",
        "schedule": "synchronous",
        "max_rounds": 256,
        "memory_ceiling_bytes": SPARSE_ACCESS_MEMORY_CEILING_BYTES,
    },
]

#: Replication count for the batched-engine cells (the documented ≥3x
#: speedup claim is defined over this batch width on the smoke workload).
BATCH_REPS = 32

#: ENGINE_CELLS entries with a batched kernel, timed batched-vs-serial.
BATCHED_CELLS: list[tuple[str, str]] = [
    ("engine/batched/sampling/sync", "unit/sampling/sync"),
    ("engine/batched/sampling/alpha", "unit/sampling/alpha"),
    ("engine/batched/sampling-slackrate/sync", "unit/sampling-slackrate/sync"),
    ("engine/batched/multi-probe/alpha", "unit/multi-probe/alpha"),
    ("engine/batched/permit/alpha", "unit/permit/alpha"),
    ("engine/batched/neighborhood/sync", "unit/neighborhood/sync"),
]

#: The replication workload of the replicate, hybrid and runs cells.
REPLICATE_WORKLOAD: dict[str, Any] = {
    "generator": "uniform_slack",
    "generator_kwargs": {"slack": 0.25},
    "protocol": "qos-sampling",
    "schedule": "synchronous",
}

#: The one-round cell and the ENGINE_CELLS entry whose workload it steps.
STEP_CELL: tuple[str, str] = ("engine/step/sampling/sync", "unit/sampling/sync")

#: The engine cell the telemetry-overhead cell instruments.
OBS_CELL = "unit/sampling-slackrate/sync"


def time_legs(
    legs: dict[str, Callable[[], Any]], *, repeats: int
) -> tuple[dict[str, dict[str, float]], dict[str, Any]]:
    """Time a cell's legs: one untimed warm-up each, then interleaved best-of.

    Every leg is called once untimed (imports, allocator growth, pool
    spin-up), then ``repeats`` rounds call the legs in turn, so machine
    drift hits all legs alike.  Per leg, ``seconds`` is the best wall
    time and ``cpu_seconds`` the best CPU time of this process;
    ``minor_faults`` and ``sys_s`` are the fewest minor page faults and
    the least system time of one call, from ``getrusage`` deltas.
    Returns those figures plus, per leg, the value its fastest call
    returned.
    """
    for leg in legs.values():
        leg()
    timings = {
        name: {"seconds": float("inf"), "cpu_seconds": float("inf"),
               "minor_faults": float("inf"), "sys_s": float("inf")}
        for name in legs
    }
    values: dict[str, Any] = {}
    for _ in range(max(1, repeats)):
        for name, leg in legs.items():
            ru = resource.getrusage(resource.RUSAGE_SELF)
            wall, cpu = time.perf_counter(), time.process_time()
            value = leg()
            cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
            ru_after = resource.getrusage(resource.RUSAGE_SELF)
            best = timings[name]
            if wall < best["seconds"]:
                best["seconds"] = wall
                values[name] = value
            best["cpu_seconds"] = min(best["cpu_seconds"], cpu)
            best["minor_faults"] = min(best["minor_faults"], ru_after.ru_minflt - ru.ru_minflt)
            best["sys_s"] = min(best["sys_s"], ru_after.ru_stime - ru.ru_stime)
    return timings, values


def _cell(
    kind: str,
    name: str,
    headline: str,
    unit: str,
    legs: dict[str, dict[str, float]],
    *,
    higher_is_better: bool = True,
    **fields: Any,
) -> dict[str, Any]:
    """One self-describing cell: its headline field, unit, direction and legs."""
    return {
        "kind": kind,
        "name": name,
        "headline": headline,
        "unit": unit,
        "higher_is_better": higher_is_better,
        "legs": legs,
        **fields,
    }


def _workload(cell: dict[str, Any], n_users: int, n_resources: int) -> dict[str, Any]:
    return {
        "generator": cell["generator"],
        "protocol": cell["protocol"],
        "schedule": cell["schedule"],
        "n_users": int(n_users),
        "n_resources": int(n_resources),
    }


def _runner(cell: dict[str, Any], *, n: int, m: int, max_rounds: int, seed: int):
    """The cell's instance and a zero-argument scalar run from a pile start."""
    from .sim.engine import run
    from .sim.parallel import _spec_components

    instance, protocol, schedule = _spec_components(_spec(cell, n=n, m=m))
    return instance, partial(
        run, instance, protocol, seed=seed, schedule=schedule, max_rounds=max_rounds,
        initial="pile",
    )


def _spec(cell: dict[str, Any], *, max_rounds: int = 100_000, label: str = "", **sizes: int):
    """The cell as a :class:`~repro.sim.parallel.RunSpec` from a pile start;
    ``sizes`` (``n``, ``m``) fill generator kwargs the cell leaves open."""
    from .sim.parallel import RunSpec

    return RunSpec(
        generator=cell["generator"],
        generator_kwargs={**sizes, **cell.get("generator_kwargs", {})},
        protocol=cell["protocol"],
        protocol_kwargs=dict(cell.get("protocol_kwargs", {})),
        schedule=cell["schedule"],
        schedule_kwargs=dict(cell.get("schedule_kwargs", {})),
        initial="pile",
        max_rounds=max_rounds,
        label=label,
    )


def _engine_cell(
    cell: dict[str, Any], *, n: int, m: int, max_rounds: int, repeats: int, seed: int = 0
) -> dict[str, Any]:
    instance, one_run = _runner(cell, n=n, m=m, max_rounds=max_rounds, seed=seed)
    legs, values = time_legs({"run": one_run}, repeats=repeats)
    result, seconds = values["run"], legs["run"]["seconds"]
    rounds = max(1, result.rounds)
    return _cell(
        "engine", cell["name"], "rounds_per_sec", "rounds/s", legs,
        **_workload(cell, instance.n_users, instance.n_resources),
        seconds=seconds,
        rounds=int(result.rounds),
        status=result.status,
        rounds_per_sec=rounds / seconds,
        user_rounds_per_sec=rounds * instance.n_users / seconds,
    )


def _step_cell(
    name: str, cell: dict[str, Any], *, n: int, m: int, repeats: int, seed: int = 0
) -> dict[str, Any]:
    """One synchronous protocol round from a fresh copy of the pile state."""
    from .core.state import State
    from .sim.parallel import _spec_components

    instance, protocol, _ = _spec_components(_spec(cell, n=n, m=m))
    rng = np.random.default_rng(seed)
    protocol.reset(instance, rng)
    pile = State.worst_case_pile(instance)
    active = np.ones(instance.n_users, dtype=bool)

    def one_round():
        state = pile.copy()
        protocol.step(state, active, rng)
        return state

    legs, values = time_legs({"step": one_round}, repeats=repeats)
    seconds = legs["step"]["seconds"]
    return _cell(
        "step", name, "user_rounds_per_sec", "user-rounds/s", legs,
        **_workload(cell, instance.n_users, instance.n_resources),
        seconds=seconds,
        n_satisfied=int(values["step"].n_satisfied),
        user_rounds_per_sec=instance.n_users / seconds,
    )


def _huge_cell(cell: dict[str, Any], *, seed: int = 0, repeats: int = 1) -> dict[str, Any]:
    """One million-user replication, timed and memory-audited.

    The leg (instance build + run) is wrapped in ``tracemalloc`` (NumPy
    registers its data allocations with it), so ``peak_traced_bytes`` is
    the cell-local allocation peak the pinned ceiling is stated over, and
    the cell's headline (lower is better).  ``peak_rss_bytes``
    (``ru_maxrss``) rides along for context but is process-monotonic —
    earlier cells in a full harness run inflate it — so the ceiling check
    uses the traced number.
    """
    import resource
    import tracemalloc

    from .sim.engine import run
    from .sim.parallel import _spec_components

    def traced_run():
        tracemalloc.start()
        try:
            instance, protocol, schedule = _spec_components(_spec(cell))
            result = run(
                instance, protocol, seed=seed, schedule=schedule,
                max_rounds=cell["max_rounds"], initial="pile",
            )
            return instance, result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    legs, values = time_legs({"run": traced_run}, repeats=repeats)
    instance, result, peak_traced = values["run"]
    seconds = legs["run"]["seconds"]
    ceiling = int(cell["memory_ceiling_bytes"])
    rounds = max(1, result.rounds)
    return _cell(
        "huge", cell["name"], "peak_traced_bytes", "B", legs, higher_is_better=False,
        **_workload(cell, instance.n_users, instance.n_resources),
        seconds=seconds,
        rounds=int(result.rounds),
        status=result.status,
        rounds_per_sec=rounds / seconds,
        user_rounds_per_sec=rounds * instance.n_users / seconds,
        peak_traced_bytes=int(peak_traced),
        peak_rss_bytes=int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024,
        memory_ceiling_bytes=ceiling,
        within_ceiling=bool(peak_traced <= ceiling),
    )


def _scalar_reps(spec, reps: int, base_seed: int = 0) -> list:
    """The scalar reference: every replication through the round loop,
    seeded exactly as :func:`~repro.sim.parallel.replicate` seeds it."""
    from .sim.parallel import rep_seed, run_spec, spec_seed_key

    key = spec_seed_key(spec)
    return [run_spec(spec, rep_seed(base_seed, key, i)) for i in range(reps)]


def _replicate_cell(
    *, n: int, m: int, max_rounds: int, reps: int, repeats: int
) -> dict[str, Any]:
    spec = _spec(REPLICATE_WORKLOAD, n=n, m=m, max_rounds=max_rounds, label="bench-replicate")
    # The scalar engine: this cell *is* the serial baseline the batched
    # cells are compared against.
    legs, values = time_legs({"serial": partial(_scalar_reps, spec, reps)}, repeats=repeats)
    results, seconds = values["serial"], legs["serial"]["seconds"]
    return _cell(
        "replicate", "replicate/sampling/serial", "reps_per_sec", "reps/s", legs,
        **_workload(REPLICATE_WORKLOAD, n, m),
        reps=reps,
        seconds=seconds,
        reps_per_sec=reps / seconds,
        total_rounds=int(sum(r.rounds for r in results)),
        statuses=sorted({r.status for r in results}),
    )


def _hybrid_cell(
    *,
    n: int,
    m: int,
    max_rounds: int,
    repeats: int,
    reps: int = BATCH_REPS,
    workers: int | None = None,
) -> dict[str, Any]:
    """Hybrid (processes × batch) replication vs single-process batched.

    The ``hybrid`` leg is :func:`~repro.sim.parallel.replicate` over the
    default pool, which shards the batch across processes; the ``batched``
    leg runs the whole batch in one process.  Both produce bit-identical
    per-rep results, so the comparison is pure wall-clock.  The payload
    records the shard count the hybrid leg actually ran with (``workers``)
    so trend tooling and CI can condition the expectation on it — on one
    core ``replicate`` runs plain batched by design.
    """
    from .sim.batch import replicate_batched
    from .sim.parallel import _pool_size, replicate

    spec = _spec(REPLICATE_WORKLOAD, n=n, m=m, max_rounds=max_rounds, label="bench-hybrid")
    n_workers = _pool_size(workers)
    legs, values = time_legs(
        {
            "batched": partial(replicate_batched, spec, reps, base_seed=0),
            "hybrid": partial(replicate, spec, reps, base_seed=0, workers=n_workers),
        },
        repeats=repeats,
    )
    seconds = legs["hybrid"]["seconds"]
    total_rounds = max(1, sum(r.rounds for r in values["hybrid"]))
    return _cell(
        "hybrid", "replicate/hybrid", "user_rounds_per_sec", "user-rounds/s", legs,
        **_workload(REPLICATE_WORKLOAD, n, m),
        reps=reps,
        workers=min(max(1, n_workers), reps),
        seconds=seconds,
        batched_seconds=legs["batched"]["seconds"],
        rounds=int(total_rounds),
        rounds_per_sec=total_rounds / seconds,
        user_rounds_per_sec=total_rounds * n / seconds,
        speedup_vs_batched=legs["batched"]["seconds"] / seconds,
        statuses=sorted({r.status for r in values["hybrid"]}),
    )


def _batched_cell(
    name: str,
    cell: dict[str, Any],
    *,
    n: int,
    m: int,
    max_rounds: int,
    repeats: int,
    reps: int = BATCH_REPS,
) -> dict[str, Any]:
    """Batched-vs-serial replication throughput on one engine cell's spec.

    Both legs replicate the same :class:`RunSpec` ``reps`` times in one
    process; the serial leg is the scalar reference, the batched leg runs
    the whole batch lockstep.  Replication is bit-identical per rep across
    the two engines, so both legs simulate the same user-rounds and
    ``speedup_vs_serial`` (the ratio of simulated user-round throughputs,
    the unit the ≥3x claim is stated in) is a pure wall-clock ratio.
    """
    from .sim.batch import replicate_batched

    spec = _spec(cell, n=n, m=m, max_rounds=max_rounds, label=f"bench-{name}")
    legs, values = time_legs(
        {
            "serial": partial(_scalar_reps, spec, reps),
            "batched": partial(replicate_batched, spec, reps, base_seed=0),
        },
        repeats=repeats,
    )
    seconds, serial_seconds = legs["batched"]["seconds"], legs["serial"]["seconds"]
    batched_rounds = max(1, sum(r.rounds for r in values["batched"]))
    serial_rounds = max(1, sum(r.rounds for r in values["serial"]))
    batched_urps = batched_rounds * n / seconds
    serial_urps = serial_rounds * n / serial_seconds
    return _cell(
        "batched", name, "speedup_vs_serial", "x vs serial", legs,
        **_workload(cell, n, m),
        serial_cell=cell["name"],
        reps=reps,
        seconds=seconds,
        serial_seconds=serial_seconds,
        rounds=int(batched_rounds),
        serial_rounds=int(serial_rounds),
        rounds_per_sec=batched_rounds / seconds,
        user_rounds_per_sec=batched_urps,
        serial_user_rounds_per_sec=serial_urps,
        speedup_vs_serial=batched_urps / serial_urps,
        minor_faults=legs["batched"]["minor_faults"],
        sys_s=legs["batched"]["sys_s"],
        statuses=sorted({r.status for r in values["batched"]}),
    )


def _obs_cell(
    cell: dict[str, Any],
    *,
    n: int,
    m: int,
    max_rounds: int,
    repeats: int,
    seed: int = 0,
    iters: int = 20_000,
    sample_rate: int = 16,
) -> dict[str, Any]:
    """Telemetry overhead on one engine cell: hub disabled vs enabled.

    The enabled run uses the in-memory ring buffer only (no JSONL sink) —
    the configuration the ≤5% overhead budget is defined over; the
    disabled number doubles as the <2% no-op regression check against the
    committed baseline.  Cache hit/miss counters from the run ride along.

    Noise discipline.  The true enabled cost is single-digit microseconds
    per round against rounds of hundreds of microseconds — a ~1% effect
    that an end-to-end before/after ratio cannot resolve on a shared
    machine (observed run-to-run CPU-time noise here is ±10% with
    multi-second load epochs; the ratio of two such measurements flaps
    between -25% and +30%).  So the cell records both end-to-end
    throughput numbers (the ``disabled``/``enabled`` legs, CPU time) for
    trend tracking, but derives ``overhead_pct`` from a *direct*
    measurement: three ``loop_*`` legs time a tight loop of exactly what
    the engine adds per round — the round book's own
    :meth:`~repro.sim.book.RoundBook.start` and
    :meth:`~repro.sim.book.RoundBook.step` calls (accounting, the
    ``engine.round`` span, the throttled liveness events and the sampled
    ``round`` event) — with the hub disabled, enabled and
    counter-sampled.  Each per-round
    cost is that leg's ``cpu_seconds / iters``; the overhead is the
    enabled minus the disabled cost, divided by the cell's per-round time.
    """
    from .obs import HUB
    from .sim.book import RoundBook

    instance, one_run = _runner(cell, n=n, m=m, max_rounds=max_rounds, seed=seed)
    protocol, schedule = one_run.args[1], one_run.keywords["schedule"]

    def enabled_run():
        with HUB.enabled(label="bench-obs"):
            return one_run(), dict(HUB.counters)

    def round_loop():
        # A moving round: the book asks for no quiescence verdict.
        with RoundBook(instance, protocol, schedule, [seed], iters) as book:
            for i in range(iters):
                book.start(i, 1, False)
                book.step(i, 1, 1, 1, False, None)

    def enabled_loop(**config: Any):
        def leg():
            with HUB.enabled(label="bench-obs-micro", **config):
                round_loop()
            HUB.ring.clear()  # free this leg's events inside its own timing

        return leg

    legs, values = time_legs(
        {
            "disabled": one_run,
            "enabled": enabled_run,
            "loop_disabled": round_loop,
            "loop_enabled": enabled_loop(),
            "loop_sampled": enabled_loop(sample_rate=sample_rate),
        },
        repeats=repeats,
    )
    result, counters = values["enabled"]
    rounds = max(1, result.rounds)
    cost = {
        leg: legs[f"loop_{leg}"]["cpu_seconds"] / iters
        for leg in ("disabled", "enabled", "sampled")
    }
    round_seconds = legs["disabled"]["cpu_seconds"] / rounds
    return _cell(
        "obs", f"obs/overhead@{cell['name']}", "enabled_rounds_per_sec", "rounds/s", legs,
        **_workload(cell, instance.n_users, instance.n_resources),
        seconds=legs["enabled"]["seconds"],
        rounds=int(result.rounds),
        status=result.status,
        enabled_rounds_per_sec=rounds / legs["enabled"]["cpu_seconds"],
        disabled_rounds_per_sec=rounds / legs["disabled"]["cpu_seconds"],
        per_round_cost_enabled_us=cost["enabled"] * 1e6,
        per_round_cost_disabled_us=cost["disabled"] * 1e6,
        per_round_cost_sampled_us=cost["sampled"] * 1e6,
        sample_rate=sample_rate,
        overhead_pct=100.0 * max(0.0, cost["enabled"] - cost["disabled"]) / round_seconds,
        overhead_pct_sampled=100.0 * max(0.0, cost["sampled"] - cost["disabled"]) / round_seconds,
        cache_hits=int(counters.get("state.cache_hits", 0)),
        cache_misses=int(counters.get("state.cache_misses", 0)),
    )


def _runs_cell(
    *, n: int, m: int, max_rounds: int, reps: int, repeats: int
) -> dict[str, Any]:
    """Sweep-orchestrator overhead: 1 worker vs 2 workers vs cached.

    Four independent cells run through :func:`repro.runs.run_cells`:
    ``workers=1`` (the baseline), ``workers=2`` (the documented speedup
    claim — embarrassingly parallel cells should approach 2x minus pool
    spin-up), and a cached re-run (pure store-lookup cost, ~free).  Each
    cell runs on the engine :func:`~repro.sim.parallel.replicate` picks
    for it (batched).  Every call of the first two legs writes into a
    fresh store, so no timed call hits the cache; the cached leg reads a
    store filled before timing starts.
    """
    import itertools
    import shutil
    import tempfile

    from .runs import run_cells
    from .runs.store import CellSpec, ResultStore

    # The slack-proportional rate converges slowly, so every rep burns the
    # whole round budget — deterministic work heavy enough that two workers
    # amortize the pool spin-up (the speedup claim needs real work to split).
    cell_n, cell_m = max(1024, n), max(16, m)
    n_reps = max(12, 3 * reps)
    workload = {**REPLICATE_WORKLOAD, "protocol_kwargs": {"rate": {"name": "slack-proportional"}}}
    cells = [
        CellSpec(
            spec=_spec(
                workload, n=cell_n, m=cell_m, max_rounds=max_rounds, label=f"bench-runs-{i}"
            ),
            n_reps=n_reps,
            base_seed=i,
        )
        for i in range(4)
    ]

    tmp = Path(tempfile.mkdtemp(prefix="bench-runs-"))
    fresh = itertools.count()

    def fresh_sweep(workers: int):
        return lambda: run_cells(
            cells, store=ResultStore(tmp / f"store-{next(fresh)}"), workers=workers,
            timeout=None,
        )

    try:
        filled = ResultStore(tmp / "cached")
        run_cells(cells, store=filled, workers=1, timeout=None)
        legs, values = time_legs(
            {
                "1w": fresh_sweep(1),
                "2w": fresh_sweep(2),
                "cached": lambda: run_cells(cells, store=filled, workers=2, timeout=None),
            },
            repeats=repeats,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    seconds = legs["1w"]["seconds"]
    return _cell(
        "runs", "runs/overhead", "speedup_2w", "x speedup", legs,
        **_workload(workload, cell_n, cell_m),
        cells=len(cells),
        reps=n_reps,
        cpus=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        seconds=seconds,
        seconds_2w=legs["2w"]["seconds"],
        speedup_2w=seconds / legs["2w"]["seconds"],
        cached_seconds=legs["cached"]["seconds"],
        cached_cells=values["cached"]["cached"],
    )


def _aggregate_cell(
    *, cells: int = 200, events_per_cell: int = 50, repeats: int = 3
) -> dict[str, Any]:
    """Timeline-merge cost on a synthetic 200-cell sweep's event files.

    Builds ``cells`` per-cell ``obs-events/v1`` files (one meta header +
    heartbeats/rounds each, one file torn mid-record — the tolerance path
    must be on the timed path, it always runs in production), then times
    :func:`repro.obs.aggregate.merge_events`.  The headline
    ``events_per_sec`` is the merge's throughput; the derived
    ``per_event_cost_us`` is what the budget test pins.
    """
    import shutil
    import tempfile

    from .obs.aggregate import merge_events

    tmp = Path(tempfile.mkdtemp(prefix="bench-aggregate-"))
    try:
        events_dir = tmp / "events"
        events_dir.mkdir()
        base_t = 1_700_000_000.0
        for i in range(cells):
            lines = [
                json.dumps(
                    {
                        "type": "meta",
                        "t": base_t + i,
                        "schema": "obs-events/v1",
                        "meta": {"label": f"bench-cell-{i}"},
                    }
                )
            ]
            for j in range(events_per_cell - 1):
                kind = "cell.heartbeat" if j % 10 == 0 else "round"
                lines.append(
                    json.dumps(
                        {
                            "type": kind,
                            "t": base_t + i + 0.01 * j,
                            "round": j,
                            "unsatisfied": cells - i,
                        }
                    )
                )
            (events_dir / f"cell-{i:032x}.jsonl").write_text("\n".join(lines) + "\n")
        with (events_dir / f"cell-{0:032x}.jsonl").open("a") as fh:
            fh.write('{"type": "round", "t": 1.0, "trunc')  # torn final line

        legs, values = time_legs(
            {"merge": lambda: merge_events(events_dir, out=tmp / "timeline.jsonl")},
            repeats=repeats,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    summary, seconds = values["merge"], legs["merge"]["seconds"]
    records = max(1, summary.get("records", 0))
    return _cell(
        "aggregate", "obs/aggregate", "events_per_sec", "events/s", legs,
        cells=cells,
        records=int(summary.get("records", 0)),
        bad_lines=int(summary.get("bad_lines", 0)),
        seconds=seconds,
        events_per_sec=records / seconds,
        per_event_cost_us=seconds / records * 1e6,
    )


def _query_cell(*, n: int, m: int, repeats: int, calls: int = 200) -> dict[str, Any]:
    from .core.state import State, caching_disabled
    from .registry import build_instance

    instance = build_instance("uniform_slack", n=n, m=m, slack=0.25)
    state = State.uniform_random(instance, np.random.default_rng(0))

    def cached():
        state.invalidate_caches()
        for _ in range(calls):
            state.satisfied_mask()

    def uncached():
        with caching_disabled():
            for _ in range(calls):
                state.satisfied_mask()

    legs, _ = time_legs({"cached": cached, "uncached": uncached}, repeats=repeats)
    cached_rate = calls / legs["cached"]["seconds"]
    uncached_rate = calls / legs["uncached"]["seconds"]
    return _cell(
        "query", "query/satisfied-mask", "cache_speedup", "x speedup", legs,
        n_users=n,
        n_resources=m,
        calls=calls,
        cached_calls_per_sec=cached_rate,
        uncached_calls_per_sec=uncached_rate,
        cache_speedup=cached_rate / uncached_rate,
    )


def _startup_cell(*, repeats: int) -> dict[str, Any]:
    """Cold-start cost: wall time of a fresh ``python -c "import ..."``.

    The child imports this very package (its parent directory leads
    ``PYTHONPATH``).  The legs' ``cpu_seconds``, ``minor_faults`` and
    ``sys_s`` are this process's, so only ``seconds`` measures the child.
    """
    import subprocess

    path = [str(Path(__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}

    def fresh(module: str) -> Callable[[], Any]:
        argv = [sys.executable, "-c", f"import {module}"]
        return lambda: subprocess.run(argv, env=env, check=True)

    legs, _ = time_legs(
        {"repro": fresh("repro"), "sim.parallel": fresh("repro.sim.parallel")},
        repeats=repeats,
    )
    return _cell(
        "startup", "startup/import", "import_s", "s", legs,
        higher_is_better=False,
        import_s=legs["repro"]["seconds"],
        parallel_import_s=legs["sim.parallel"]["seconds"],
    )


def _cell_filter(only: str | None):
    """Name predicate for ``--only``: glob, or prefix when glob-free."""
    import fnmatch

    if only is None:
        return lambda name: True
    pattern = only if any(ch in only for ch in "*?[") else only + "*"
    return lambda name: fnmatch.fnmatch(name, pattern)


def run_bench(
    *,
    scale: str = "smoke",
    out: str | Path = "BENCH_engine.json",
    repeats: int | None = None,
    seed: int = 0,
    only: str | None = None,
) -> dict[str, Any]:
    """Run every selected cell, write the JSON payload, return it.

    ``only`` restricts the harness to cells whose name matches the given
    glob (a bare string matches as a prefix) — e.g. ``only="engine/huge"``
    runs just the million-user memory-audit cell, the mode CI's
    memory-ceiling guardrail uses.  The ``engine/huge/*`` family is
    otherwise included at ``--scale full`` only; the smoke harness stays
    seconds-cheap.
    """
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}; known: {sorted(SCALES)}")
    params = SCALES[scale]
    sized = {"n": params["n"], "m": params["m"], "max_rounds": params["max_rounds"]}
    n_repeats = params["repeats"] if repeats is None else int(repeats)
    engine = {c["name"]: c for c in ENGINE_CELLS}

    # (name, build) per cell, in payload order; ``only`` picks by name
    # before anything runs.
    plan: list[tuple[str, Callable[[], dict[str, Any]]]] = [
        (name, partial(_engine_cell, cell, **sized, repeats=n_repeats, seed=seed))
        for name, cell in engine.items()
    ]
    step, stepped = STEP_CELL
    plan.append(
        (
            step,
            partial(
                _step_cell, step, engine[stepped], n=sized["n"], m=sized["m"],
                repeats=n_repeats, seed=seed,
            ),
        )
    )
    plan.append(
        (
            "replicate/sampling/serial",
            partial(_replicate_cell, **sized, reps=params["reps"], repeats=n_repeats),
        )
    )
    plan += [
        (name, partial(_batched_cell, name, engine[serial], **sized, repeats=max(n_repeats, 5)))
        for name, serial in BATCHED_CELLS
    ]
    plan += [
        ("replicate/hybrid", partial(_hybrid_cell, **sized, repeats=n_repeats)),
        (
            "query/satisfied-mask",
            partial(_query_cell, n=sized["n"], m=sized["m"], repeats=n_repeats),
        ),
        ("runs/overhead", partial(_runs_cell, **sized, reps=params["reps"], repeats=n_repeats)),
        ("obs/aggregate", partial(_aggregate_cell, repeats=max(n_repeats, 3))),
        ("startup/import", partial(_startup_cell, repeats=max(n_repeats, 5))),
        (
            f"obs/overhead@{OBS_CELL}",
            partial(
                _obs_cell, engine[OBS_CELL], n=sized["n"], m=sized["m"],
                max_rounds=4 * sized["max_rounds"], repeats=max(n_repeats, 5), seed=seed,
            ),
        ),
    ]
    if only is not None or scale == "full":
        plan += [(cell["name"], partial(_huge_cell, cell, seed=seed)) for cell in HUGE_CELLS]
    want = _cell_filter(only)
    cells = [build() for name, build in plan if want(name)]

    provenance = provenance_stamp(seed_key=str(seed))
    payload = {
        "schema": BENCH_SCHEMA,
        "scale": scale,
        "seed": seed,
        **{key: provenance[key] for key in ("created_unix", "python", "numpy", "platform")},
        "provenance": provenance,
        "cells": cells,
    }
    Path(out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def render_bench(payload: dict[str, Any]) -> str:
    """Human-readable table of one harness run: one generic row per cell."""
    from .analysis.tables import render_table

    rows = [
        [
            c["name"],
            c.get("n_users", ""),
            c.get("n_resources", ""),
            c["headline"],
            f"{_fmt(float(c[c['headline']]))} {c['unit']}",
            ", ".join(f"{leg} {t['seconds']:.3g}" for leg, t in c["legs"].items()),
        ]
        for c in payload["cells"]
    ]
    title = (
        f"engine benchmark — scale={payload['scale']}, "
        f"python {payload['python']}, numpy {payload['numpy']}"
    )
    return render_table(["cell", "n", "m", "headline", "value", "legs (s)"], rows, title=title)


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.bench [...]``, the same as ``repro-qoslb bench [...]``."""
    from .cli import main as cli_main

    return cli_main(["bench", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
