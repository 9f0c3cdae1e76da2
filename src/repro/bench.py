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
     "speedup_vs_serial": ..., "user_rounds_per_sec": ..., ...}

``headline`` names one of the cell's own numeric fields; trend and gate
follow it with the declared direction.  ``kind`` is a plain label.

Cell families:

- ``unit/*``, ``weighted/*``, ``access/*`` (engine): protocol
  rounds/second of one scalar run per registered protocol family,
  schedule style and instance class;
- ``replicate/sampling/serial``: whole-replication throughput through
  :func:`repro.sim.parallel.replicate` on the scalar engine;
- ``engine/batched/*``: batched vs serial replication of one engine
  cell's spec, as ``speedup_vs_serial``;
- ``replicate/hybrid``: hybrid (processes × batch) replication vs the
  scalar pool and single-process batched;
- ``query/satisfied-mask``: ``State.satisfied_mask`` calls/second with
  the generation-counter cache enabled vs disabled;
- ``runs/overhead``: the sweep orchestrator serial vs 2 workers vs
  batched, plus a fully cached re-run (see :mod:`repro.runs`);
- ``obs/aggregate``: the sweep-timeline merge over a synthetic 200-cell
  sweep's event files;
- ``obs/overhead@*``: the telemetry hub's per-round cost, disabled,
  enabled and counter-sampled (see :mod:`repro.obs`);
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
        "name": "unit/sweep-best-response/sync",
        "generator": "uniform_slack",
        "protocol": "sweep-best-response",
        "schedule": "synchronous",
    },
]

#: Scale presets: instance size, engine round budget and timing repeats.
SCALES: dict[str, dict[str, int]] = {
    "smoke": {"n": 2_000, "m": 64, "max_rounds": 64, "repeats": 2, "reps": 4},
    "full": {"n": 50_000, "m": 1_024, "max_rounds": 128, "repeats": 3, "reps": 8},
}

#: Pinned peak-tracemalloc budget for one million-user replication
#: (instance build + full run).  Measured ~78 MB after the dtype/memory
#: audit (narrow index arrays, chunked mover math); 96 MiB leaves
#: headroom for allocator jitter while still catching any full-width
#: int64 regression (pre-audit layouts blow well past it).  CI's
#: guardrail fails at 1.2x this value.
HUGE_MEMORY_CEILING_BYTES = 96 * 1024 * 1024

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

#: The engine cell the telemetry-overhead cell instruments.
OBS_CELL = "unit/sampling-slackrate/sync"


def time_legs(
    legs: dict[str, Callable[[], Any]], *, repeats: int
) -> tuple[dict[str, dict[str, float]], dict[str, Any]]:
    """Time a cell's legs: one untimed warm-up each, then interleaved best-of.

    Every leg is called once untimed (imports, allocator growth, pool
    spin-up), then ``repeats`` rounds call the legs in turn, so machine
    drift hits all legs alike.  Per leg, ``seconds`` is the best wall
    time and ``cpu_seconds`` the best CPU time of this process.  Returns
    those timings plus, per leg, the value its fastest call returned.
    """
    for leg in legs.values():
        leg()
    timings = {name: {"seconds": float("inf"), "cpu_seconds": float("inf")} for name in legs}
    values: dict[str, Any] = {}
    for _ in range(max(1, repeats)):
        for name, leg in legs.items():
            wall, cpu = time.perf_counter(), time.process_time()
            value = leg()
            cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
            best = timings[name]
            if wall < best["seconds"]:
                best["seconds"] = wall
                values[name] = value
            best["cpu_seconds"] = min(best["cpu_seconds"], cpu)
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


def _build_cell(cell: dict[str, Any], **defaults: int):
    from .registry import build_instance, build_protocol, build_schedule

    instance = build_instance(cell["generator"], **{**defaults, **cell.get("generator_kwargs", {})})
    proto_kwargs = dict(cell.get("protocol_kwargs", {}))
    if cell["protocol"] == "neighborhood" and "m" not in proto_kwargs:
        proto_kwargs["m"] = instance.n_resources
    protocol = build_protocol(cell["protocol"], **proto_kwargs)
    schedule = build_schedule(cell["schedule"], **cell.get("schedule_kwargs", {}))
    return instance, protocol, schedule


def _runner(cell: dict[str, Any], *, n: int, m: int, max_rounds: int, seed: int):
    """The cell's instance and a zero-argument scalar run from a pile start."""
    from .sim.engine import run

    instance, protocol, schedule = _build_cell(cell, n=n, m=m)
    return instance, partial(
        run, instance, protocol, seed=seed, schedule=schedule, max_rounds=max_rounds,
        initial="pile",
    )


def _spec(cell: dict[str, Any], *, n: int, m: int, max_rounds: int, label: str):
    from .sim.parallel import RunSpec

    return RunSpec(
        generator=cell["generator"],
        generator_kwargs={"n": n, "m": m, **cell.get("generator_kwargs", {})},
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

    def traced_run():
        tracemalloc.start()
        try:
            instance, protocol, schedule = _build_cell(cell)
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


def _replicate_cell(
    *, n: int, m: int, max_rounds: int, reps: int, repeats: int
) -> dict[str, Any]:
    from .sim.parallel import replicate

    spec = _spec(REPLICATE_WORKLOAD, n=n, m=m, max_rounds=max_rounds, label="bench-replicate")
    # Pinned to the scalar engine: this cell *is* the serial baseline the
    # batched cells are compared against.
    legs, values = time_legs(
        {"serial": partial(replicate, spec, reps, base_seed=0, workers=0, backend="serial")},
        repeats=repeats,
    )
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
    """Hybrid (processes × batch) replication vs its two pure legs.

    Times three backends replicating the same spec ``reps`` times: the
    scalar process pool, the single-process batched engine, and the hybrid
    composition (batched shards across the pool).  All three produce
    bit-identical per-rep results, so the comparison is pure wall-clock.
    The pool-backed legs only help with ≥2 cores; the payload records the
    shard count the hybrid leg actually ran with (``workers``) so trend
    tooling and CI can condition the beats-both-legs expectation on it —
    on one core the hybrid backend degenerates to plain batched by design.
    """
    from .sim.parallel import _default_workers, replicate

    spec = _spec(REPLICATE_WORKLOAD, n=n, m=m, max_rounds=max_rounds, label="bench-hybrid")
    n_workers = _default_workers() if workers is None else int(workers)
    rep = partial(replicate, spec, reps, base_seed=0)
    legs, values = time_legs(
        {
            "pool": partial(rep, workers=n_workers, backend="serial"),
            "batched": partial(rep, backend="batched"),
            "hybrid": partial(rep, workers=n_workers, backend="hybrid"),
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
        pool_seconds=legs["pool"]["seconds"],
        batched_seconds=legs["batched"]["seconds"],
        rounds=int(total_rounds),
        rounds_per_sec=total_rounds / seconds,
        user_rounds_per_sec=total_rounds * n / seconds,
        speedup_vs_pool=legs["pool"]["seconds"] / seconds,
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
    process; the serial leg is pinned to the scalar engine, the batched
    leg runs the whole batch lockstep.  Replication is bit-identical per
    rep across the two backends, so both legs simulate the same
    user-rounds and ``speedup_vs_serial`` (the ratio of simulated
    user-round throughputs, the unit the ≥3x claim is stated in) is a
    pure wall-clock ratio.
    """
    from .sim.parallel import replicate

    spec = _spec(cell, n=n, m=m, max_rounds=max_rounds, label=f"bench-{name}")
    rep = partial(replicate, spec, reps, base_seed=0)
    legs, values = time_legs(
        {
            "serial": partial(rep, workers=0, backend="serial"),
            "batched": partial(rep, backend="batched"),
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
    the engine adds per round (the reused ``engine.round`` +
    ``engine.protocol-step`` span pair plus the guarded ``round`` event)
    with the hub disabled, enabled and counter-sampled.  Each per-round
    cost is that leg's ``cpu_seconds / iters``; the overhead is the
    enabled minus the disabled cost, divided by the cell's per-round time.
    """
    from .obs import HUB
    from .obs.hub import HEARTBEAT_INTERVAL_S, PROGRESS_INTERVAL_S

    instance, one_run = _runner(cell, n=n, m=m, max_rounds=max_rounds, seed=seed)

    def enabled_run():
        with HUB.enabled(label="bench-obs"):
            return one_run(), dict(HUB.counters)

    def round_loop():
        round_span = HUB.span("engine.round")
        step_span = HUB.span("engine.protocol-step")
        for i in range(iters):
            with round_span:
                with step_span:
                    pass
            if HUB.active:  # mirrors the engine's per-round guard block
                if HUB.tick("round"):
                    HUB.event(
                        "round",
                        {"round": i, "moved": 0, "attempted": 0, "messages": 0, "unsatisfied": 0},
                    )
                if HUB.every("cell.heartbeat", HEARTBEAT_INTERVAL_S):
                    HUB.event("cell.heartbeat", {"round": i, "unsatisfied": 0})
                if HUB.every("cell.progress", PROGRESS_INTERVAL_S):
                    HUB.event(
                        "cell.progress",
                        {
                            "round": i,
                            "max_rounds": iters,
                            "unsatisfied": 0,
                            "n_users": 0,
                            "moves": 0,
                            "messages": 0,
                        },
                    )

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
    """Sweep-orchestrator overhead: serial vs 2-worker vs batched vs cached.

    Four independent cells run through :func:`repro.runs.run_cells`:
    ``workers=1`` with the scalar engine (serial baseline), ``workers=2``
    scalar (the documented speedup claim — embarrassingly parallel cells
    should approach 2x minus pool spin-up), ``workers=1`` with the
    batched engine (one process, whole batch lockstep), and a cached
    re-run (pure store-lookup cost, ~free).  Every call of the first
    three legs writes into a fresh store, so no timed call hits the
    cache; the cached leg reads a store filled before timing starts.
    """
    import itertools
    import shutil
    import tempfile

    from .runs import run_cells
    from .runs.store import CellSpec, ResultStore

    # The slack-proportional rate converges slowly, so every rep burns the
    # whole round budget — deterministic work heavy enough that two workers
    # amortize the pool spin-up (the speedup claim needs real work to split).
    cell_n, cell_m = max(512, n // 2), max(16, m // 2)
    n_reps = max(8, 2 * reps)
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

    def fresh_sweep(workers: int, backend: str):
        return lambda: run_cells(
            cells, store=ResultStore(tmp / f"store-{next(fresh)}"), workers=workers,
            timeout=None, backend=backend,
        )

    try:
        filled = ResultStore(tmp / "cached")
        run_cells(cells, store=filled, workers=1, timeout=None, backend="batched")
        legs, values = time_legs(
            {
                "serial": fresh_sweep(1, "serial"),
                "2w": fresh_sweep(2, "serial"),
                "batched": fresh_sweep(1, "batched"),
                "cached": lambda: run_cells(cells, store=filled, workers=2, timeout=None),
            },
            repeats=repeats,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    seconds = legs["serial"]["seconds"]
    return _cell(
        "runs", "runs/overhead", "speedup_2w", "x speedup", legs,
        **_workload(workload, cell_n, cell_m),
        cells=len(cells),
        reps=n_reps,
        cpus=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        seconds=seconds,
        seconds_2w=legs["2w"]["seconds"],
        speedup_2w=seconds / legs["2w"]["seconds"],
        batched_seconds=legs["batched"]["seconds"],
        speedup_batched=seconds / legs["batched"]["seconds"],
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
