"""The benchmark's four workloads and the loop that measures them.

This module runs inside the fresh child process ``run.py`` starts for
each workload.  A workload builds its inputs from the seed, then issues
a fixed list of operations in passes; each operation waits for the
previous one (a closed loop with one client).  Program-side parallelism
is pinned to 2 processes or connections whatever the host.

Every operation's output is checked: against the digests in
``reference.json`` where the file has them for this seed, otherwise
against invariants that hold for any seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable

from spans import Span, Tracer, self_times

ROOT = Path(__file__).resolve().parents[2]

#: Program-side parallelism: pool size for local sweeps, worker
#: connections for distributed ones.
PARALLELISM = 2
#: Untraced passes a run makes at least, however long they take.
MIN_PASSES = 2

#: The sweepable experiments at the seed commit, fixed so the workload
#: does not change when the program's catalogue does.
SWEEP_IDS = ("F1", "F10", "F14", "F2", "F3", "F4", "F5", "F6", "F7", "F9", "T1", "T2", "T4", "T5")
SMOKE_SWEEP_IDS = ("F1", "F3")

#: RunResult fields an operation's digest covers.
DIGEST_FIELDS = (
    "status",
    "rounds",
    "total_moves",
    "total_attempts",
    "total_messages",
    "n_satisfied",
    "satisfying_round",
)
STATUSES = ("satisfying", "quiescent", "max_rounds")


def digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def _field(result: Any, name: str) -> Any:
    return result[name] if isinstance(result, dict) else getattr(result, name)


def results_digest(results: list) -> str:
    return digest([[_field(r, f) for f in DIGEST_FIELDS] for r in results])


def results_invalid(results: list, max_rounds: int) -> str | None:
    """Why ``results`` break an invariant that holds for any seed, or None."""
    for r in results:
        status = _field(r, "status")
        if status not in STATUSES:
            return f"unknown status {status!r}"
        if status == "satisfying" and _field(r, "n_satisfied") != _field(r, "n_users"):
            return "satisfying result with unsatisfied users"
        if not 0 <= _field(r, "rounds") <= max_rounds:
            return f"rounds {_field(r, 'rounds')} outside [0, {max_rounds}]"
    return None


# -- one pass ----------------------------------------------------------------


@dataclass
class PassContext:
    """Times and checks the operations of one pass.

    ``tracer`` is set on traced passes; each operation then gets a
    top-level ``op.<name>`` span and every layer span inside it carries
    the operation id.
    """

    index: int
    tracer: Tracer | None = None
    op_seconds: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    rounds: int = 0
    user_rounds: int = 0
    digests: Any = None
    extras: dict[str, Any] = field(default_factory=dict)

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run one operation; ``None`` when it raised (the caller counts it)."""
        tracer = self.tracer
        started = time.perf_counter()
        try:
            if tracer is None:
                return fn(*args, **kwargs)
            tracer.op = f"{self.index}:{name}"
            with tracer.span(f"op.{name}"):
                return fn(*args, **kwargs)
        except Exception as exc:  # an operation that raises is a failed operation
            self.failures.append(f"{name}: {exc!r}")
            return None
        finally:
            self.op_seconds[name] = time.perf_counter() - started
            if tracer is not None:
                tracer.op = None

    def record(self, attempted: int, failed: int, what: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.record(1, 0 if ok else 1, what)

    def count_results(self, results: list) -> None:
        self.rounds += sum(_field(r, "rounds") for r in results)
        self.user_rounds += sum(_field(r, "rounds") * _field(r, "n_users") for r in results)


# -- workloads ---------------------------------------------------------------


class Workload:
    """Inputs are built in :meth:`build`, one untimed warm-up call is made
    in :meth:`warmup`, and the operations run pass by pass in
    :meth:`run_pass`."""

    name = ""
    #: Distinct input sets; pass ``p`` uses set ``p % n_inputs``.
    n_inputs = 1
    #: Operation whose time is compared traced vs untraced; ``None``
    #: means the whole pass.
    headline_op: str | None = None

    def __init__(self, seed: int, smoke: bool, workdir: Path, reference: Any):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.reference = reference

    def build(self) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_pass(self, ctx: PassContext) -> None:
        raise NotImplementedError

    def check_op(self, ctx: PassContext, index: int, label: str, results: list | None,
                 max_rounds: int, count: int) -> None:
        """Check one operation of a pass whose ``ctx.digests`` is a list:
        invariants for any seed, then the reference digest of this pass's
        input set when the reference has one."""
        if results is None:
            ctx.check(False, f"{label} raised")
            ctx.digests.append(None)
            return
        ctx.count_results(results)
        got = results_digest(results)
        ctx.digests.append(got)
        problem = results_invalid(results, max_rounds)
        if problem is None and len(results) != count:
            problem = f"{len(results)} results, expected {count}"
        inputs = ctx.index % self.n_inputs
        if problem is None and self.reference is not None and inputs < len(self.reference):
            expected = self.reference[inputs][index]
            if got != expected:
                problem = f"digest {got} != reference {expected}"
        ctx.check(problem is None, f"{label}: {problem}")


@dataclass(frozen=True)
class _Op:
    label: str
    generator: str
    protocol: str = "qos-sampling"
    protocol_kwargs: tuple = ()
    schedule: str = "synchronous"
    schedule_kwargs: tuple = ()
    n: int | None = None
    max_rounds: int | None = None


class Replicate(Workload):
    """``replicate(spec, 32, workers=0)`` on the ``auto`` backend: every
    spec is batchable, so the ``sim.batch`` kernels do the work."""

    name = "replicate"
    n_inputs = 6
    OPS = (
        _Op("sampling-sync", "uniform_slack"),
        _Op("sampling-slackrate", "uniform_slack",
            protocol_kwargs=(("rate", {"name": "slack-proportional"}),)),
        _Op("multiprobe-alpha", "uniform_slack", "multi-probe", (("d", 2),),
            "alpha", (("alpha", 0.5),)),
        _Op("permit-alpha", "uniform_slack", "permit", (), "alpha", (("alpha", 0.25),)),
        _Op("neighborhood-sync", "uniform_slack", "neighborhood",
            (("topology", "random-regular"),)),
        _Op("weighted-sync", "weighted_uniform"),
        _Op("random-access-sync", "random_access"),
    )

    def build(self) -> None:
        from repro.sim import parallel

        self.parallel = parallel
        n, m = (2048, 64) if self.smoke else (16384, 512)
        self.reps = 8 if self.smoke else 32
        self.max_rounds = 64 if self.smoke else 256
        self.specs = [
            parallel.RunSpec(
                generator=op.generator,
                generator_kwargs={"n": n, "m": m},
                protocol=op.protocol,
                protocol_kwargs=dict(op.protocol_kwargs),
                schedule=op.schedule,
                schedule_kwargs=dict(op.schedule_kwargs),
                max_rounds=self.max_rounds,
                initial="pile",
                label=f"e2e-{op.label}",
            )
            for op in self.OPS
        ]

    def warmup(self) -> None:
        self.parallel.replicate(replace(self.specs[0], max_rounds=2), 2, workers=0)

    def run_pass(self, ctx: PassContext) -> None:
        base_seed = 1000 * self.seed + ctx.index % self.n_inputs
        ctx.digests = []
        for i, (op, spec) in enumerate(zip(self.OPS, self.specs)):
            results = ctx.call(
                op.label, self.parallel.replicate, spec, self.reps,
                base_seed=base_seed, workers=0,
            )
            self.check_op(ctx, i, op.label, results, self.max_rounds, self.reps)


class SingleLarge(Workload):
    """``sim.engine.run`` at R = 1 on million-user instances built in
    setup: the scalar round loop does the work."""

    name = "single-large"
    n_inputs = 4
    OPS = (
        _Op("sampling-sync", "uniform_slack"),
        _Op("sampling-alpha", "uniform_slack", schedule="alpha",
            schedule_kwargs=(("alpha", 0.5),)),
        _Op("sampling-slackrate", "uniform_slack",
            protocol_kwargs=(("rate", {"name": "slack-proportional"}),), max_rounds=64),
        _Op("multiprobe-sync", "uniform_slack", "multi-probe", (("d", 2),)),
        _Op("permit-sync", "uniform_slack", "permit"),
        _Op("weighted-sync", "weighted_uniform"),
        _Op("sparse-access-sync", "sparse_access"),
        _Op("neighborhood-sync", "uniform_slack", "neighborhood",
            (("topology", "random-regular"),), n=200_000),
    )

    def build(self) -> None:
        from repro import registry
        from repro.sim import engine

        self.engine = engine
        big, m = (20_000, 64) if self.smoke else (1_000_000, 1024)
        self.default_rounds = 32 if self.smoke else 256
        self.runs = []
        for op in self.OPS:
            n = big if op.n is None or self.smoke else op.n
            instance = registry.build_instance(op.generator, n=n, m=m)
            protocol_kwargs = dict(op.protocol_kwargs)
            if op.protocol == "neighborhood":
                protocol_kwargs["m"] = m
            protocol = registry.build_protocol(op.protocol, **protocol_kwargs)
            schedule = registry.build_schedule(op.schedule, **dict(op.schedule_kwargs))
            max_rounds = min(op.max_rounds or self.default_rounds, self.default_rounds)
            self.runs.append((op, instance, protocol, schedule, max_rounds))

    def warmup(self) -> None:
        _, instance, protocol, schedule, _ = self.runs[0]
        self.engine.run(instance, protocol, seed=0, schedule=schedule, max_rounds=1,
                        initial="pile")

    def run_pass(self, ctx: PassContext) -> None:
        run_seed = 1000 * self.seed + ctx.index % self.n_inputs
        ctx.digests = []
        for i, (op, instance, protocol, schedule, max_rounds) in enumerate(self.runs):
            result = ctx.call(
                op.label, self.engine.run, instance, protocol,
                seed=run_seed, schedule=schedule, max_rounds=max_rounds, initial="pile",
            )
            self.check_op(ctx, i, op.label, None if result is None else [result], max_rounds, 1)


def cell_identity(payload: dict) -> str:
    """Hash of a stored cell's description, without the package version
    that salts the store key."""
    cell = {k: v for k, v in payload["cell"].items() if k != "experiment_id"}
    return digest(cell)


def payload_digest(payload: dict) -> str:
    """A cell's results: its payload minus provenance, wall time,
    telemetry and the version-salted key."""
    return digest(
        {k: v for k, v in payload.items()
         if k not in ("provenance", "duration_s", "telemetry", "key")}
    )


class Sweep(Workload):
    """Cold sweep into a fresh directory, render-only pass over every
    experiment, then the same sweep again (all cache hits).  The seed has
    no effect: the inputs are the fixed ``ci`` presets."""

    name = "sweep"
    headline_op = "sweep.cold"

    def build(self) -> None:
        import repro.experiments as experiments
        import repro.runs as runs

        self.runs = runs
        self.experiments = experiments
        self.ids = list(SMOKE_SWEEP_IDS if self.smoke else SWEEP_IDS)
        self.cells_ref = (self.reference or {}).get("cells")
        self.renders_ref = (self.reference or {}).get("renders")

    def warmup(self) -> None:
        self.runs.enumerate_sweep(self.ids[:1], "ci")

    def sweep(self, ctx: PassContext, step: str, out: Path) -> dict | None:
        return ctx.call(f"sweep.{step}", self.runs.run_sweep, self.ids, out=out, scale="ci",
                        workers=PARALLELISM)

    def run_pass(self, ctx: PassContext) -> None:
        out = self.workdir / f"pass-{ctx.index}"
        shutil.rmtree(out, ignore_errors=True)
        ctx.digests = {"cells": {}, "renders": {}}
        try:
            self._cold(ctx, out)
            self._warm(ctx, out)
            self._cached(ctx, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _cold(self, ctx: PassContext, out: Path) -> None:
        summary = self.sweep(ctx, "cold", out)
        if summary is None:
            n_cells = len(self.cells_ref or ()) or 1
            ctx.record(n_cells, n_cells, "cold sweep raised")
            return
        n_cells = len(self.cells_ref) if self.cells_ref is not None else summary["cells"]
        store = self.runs.ResultStore(out / "store")
        payloads = [p for p in map(store.get, store.keys()) if p is not None]
        finished: dict[str, int] = {}
        started = 0
        for line in (out / "journal.jsonl").read_text().splitlines():
            record = json.loads(line)
            if record["type"] == "finished":
                finished[record["key"]] = finished.get(record["key"], 0) + 1
            elif record["type"] == "started":
                started += 1
        walls, cpus = [], []
        for payload in payloads:
            ident, got = cell_identity(payload), payload_digest(payload)
            ctx.digests["cells"][ident] = got
            results = payload["results"]
            ctx.count_results(results)
            telemetry = payload.get("telemetry") or {}
            walls.append(float(telemetry.get("wall_s") or 0.0))
            cpus.append(float(telemetry.get("cpu_user_s") or 0.0)
                        + float(telemetry.get("cpu_sys_s") or 0.0))
            problem = results_invalid(results, payload["cell"]["spec"]["max_rounds"])
            if problem is None and finished.get(payload["key"]) != 1:
                problem = f"journalled finished {finished.get(payload['key'], 0)} times"
            expected = self.cells_ref.get(ident) if self.cells_ref is not None else got
            if problem is None and got != expected:
                problem = f"digest {got} != reference {expected}"
            ctx.check(problem is None, f"cell {payload['key']}: {problem}")
        # Failed cells never reach the store, so they show up as missing.
        missing = max(n_cells - len(payloads), 0)
        ctx.record(missing, missing, f"cold sweep: {missing} cells missing, "
                                     f"{summary['failed']} failed")
        ctx.extras.update(cell_wall_s=walls, cell_cpu_s=sum(cpus), attempts=started)

    def _warm(self, ctx: PassContext, out: Path) -> None:
        with self.runs.use_store(out / "store", render_only=True):
            for eid in self.ids:
                result = ctx.call(f"render.{eid}", self.experiments.run_experiment, eid, "ci")
                if result is None:
                    ctx.check(False, f"render {eid} raised")
                    continue
                got = digest(result.render())
                ctx.digests["renders"][eid] = got
                expected = self.renders_ref.get(eid) if self.renders_ref is not None else got
                ctx.check(got == expected, f"render {eid}: digest {got} != reference {expected}")

    def _cached(self, ctx: PassContext, out: Path) -> None:
        summary = self.sweep(ctx, "cached", out)
        n_cells = len(self.cells_ref or ()) or (summary or {}).get("cells", 1)
        if summary is None:
            ctx.record(n_cells, n_cells, "cached sweep raised")
            return
        hits = summary["cached"] if summary["run"] == 0 else 0
        misses = max(n_cells - hits, 0)
        ctx.record(n_cells, misses, f"cached sweep: {summary['cached']} hits of {n_cells}")


class SweepNet(Sweep):
    """The same three steps with the TCP coordinator in place of the
    local pool: cold and cached go through ``serve_sweep``; the cold serve
    leases cells to ``python -m repro runs worker`` subprocesses."""

    name = "sweep-net"

    def sweep(self, ctx: PassContext, step: str, out: Path) -> dict | None:
        workers: list[subprocess.Popen] = []

        def start_workers(address: tuple[str, int]) -> None:
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.tmpdir))
            for i in range(PARALLELISM):
                log = (self.workdir / f"worker-{i}.log").open("w")
                workers.append(subprocess.Popen(
                    [sys.executable, "-m", "repro", "runs", "worker",
                     "--connect", f"{address[0]}:{address[1]}"],
                    env=env, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT,
                ))
                log.close()

        try:
            return ctx.call(
                f"sweep.{step}", self.runs.serve_sweep, self.ids, out=out, scale="ci",
                on_listen=start_workers if step == "cold" else None, deadline_s=600.0,
            )
        finally:
            for proc in workers:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()

    def build(self) -> None:
        super().build()
        self.tmpdir = self.workdir / "tmp"
        self.tmpdir.mkdir(parents=True, exist_ok=True)


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Replicate, SingleLarge, Sweep, SweepNet)
}


# -- measurement -------------------------------------------------------------


def _usage() -> tuple[float, float, int]:
    """(user + system CPU, system CPU, minor page faults) of this process
    and its reaped children."""
    cpu = sys_s = 0.0
    faults = 0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        cpu += usage.ru_utime + usage.ru_stime
        sys_s += usage.ru_stime
        faults += usage.ru_minflt
    return cpu, sys_s, faults


def _peak_rss_mib() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


@dataclass
class PassRecord:
    traced: bool
    wall_s: float
    op_seconds: dict[str, float]
    cpu_s: float
    rounds: int
    user_rounds: int
    sys_s: float = 0.0
    minor_faults: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    extras: dict[str, Any] = field(default_factory=dict)

    @property
    def pass_s(self) -> float:
        return sum(self.op_seconds.values())

    def headline(self, op: str | None) -> float:
        return self.pass_s if op is None else self.op_seconds.get(op, 0.0)


def measure(
    workload: Workload,
    *,
    seconds: float,
    trace: bool,
    passes: int | None,
    started: float,
) -> dict[str, Any]:
    """Set up, then run passes for ``seconds`` (or exactly ``passes``).

    Traced runs alternate untraced and traced passes so that machine
    drift hits both alike; the per-layer numbers come from the traced
    ones, the tracing overhead from the difference.
    """
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.op = "setup"
        tracer.install()
    workload.build()
    if tracer is not None:
        tracer.uninstall()
        tracer.op = None
    setup_spans = len(tracer.spans) if tracer is not None else 0
    workload.warmup()
    setup_s = time.perf_counter() - started

    from repro.core.state import CACHE_STATS

    records: list[PassRecord] = []
    attempted = failed = 0
    failures: list[str] = []
    digests: list[Any] = []
    # Enough untraced passes for a median; a traced run needs one of each.
    min_plain = 1 if tracer is not None or workload.smoke else MIN_PASSES
    t_start = time.perf_counter()
    index = 0
    while True:
        traced = tracer is not None and index % 2 == 1
        ctx = PassContext(index, tracer if traced else None)
        if traced:
            tracer.install()
        hits0, misses0 = CACHE_STATS.hits, CACHE_STATS.misses
        usage0 = _usage()
        wall0 = time.perf_counter()
        workload.run_pass(ctx)
        wall = time.perf_counter() - wall0
        cpu, sys_s, faults = (b - a for a, b in zip(usage0, _usage()))
        if traced:
            tracer.uninstall()
        records.append(PassRecord(
            traced, wall, dict(ctx.op_seconds), cpu, ctx.rounds, ctx.user_rounds, sys_s,
            faults, CACHE_STATS.hits - hits0, CACHE_STATS.misses - misses0, ctx.extras,
        ))
        attempted += ctx.attempted
        failed += ctx.failed
        failures.extend(ctx.failures)
        digests.append(ctx.digests)
        index += 1
        n_traced = sum(r.traced for r in records)
        enough = (len(records) - n_traced >= min_plain
                  and (tracer is None or n_traced >= 1))
        if passes is not None:
            if index >= passes:
                break
        elif enough and (workload.smoke or time.perf_counter() - t_start >= seconds):
            break

    plain = [r for r in records if not r.traced] or records
    samples: dict[str, list[float]] = {
        "setup_s": [setup_s],
        "pass_s": [r.pass_s for r in plain],
        "ns_per_user_round": [1e9 * r.pass_s / max(r.user_rounds, 1) for r in plain],
        "rounds_total": [float(r.rounds) for r in plain],
        "cpu_s": [r.cpu_s for r in plain],
        "peak_rss_mib": [_peak_rss_mib()],
    }
    out: dict[str, Any] = {
        "workload": workload.name,
        "seed": workload.seed,
        "smoke": workload.smoke,
        "passes": len(records),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "checked": "reference" if workload.reference else "invariants",
        "samples": samples,
        "digests": digests,
    }
    if tracer is not None:
        traced_records = [r for r in records if r.traced]
        out["per_layer"] = layer_metrics(
            tracer.spans[:setup_spans], tracer.spans[setup_spans:], traced_records,
            plain, workload.headline_op,
        )
        tracer.write(workload.workdir.parent / f"trace-{workload.name}.jsonl")
    return out


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _median(values: list[float]) -> float:
    return _quantile(values, 0.5)


def layer_metrics(
    setup_spans: list[Span],
    pass_spans: list[Span],
    traced: list[PassRecord],
    plain: list[PassRecord],
    headline_op: str | None,
) -> dict[str, float]:
    """Per-layer numbers of a traced run.

    Each value is what the traced set-up contributed plus the mean over
    traced passes, so values do not depend on how many passes ran.
    """
    n = max(len(traced), 1)
    self_s = self_times([*setup_spans, *pass_spans])
    totals: dict[str, float] = {}

    def add(key: str, value: float, in_setup: bool) -> None:
        totals[key] = totals.get(key, 0.0) + (value if in_setup else value / n)

    children: dict[int, list[Span]] = {}
    for s in pass_spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def has_descendant(span: Span, name: str) -> bool:
        todo = list(children.get(span.id, ()))
        while todo:
            child = todo.pop()
            if child.name == name:
                return True
            todo.extend(children.get(child.id, ()))
        return False

    for spans, in_setup in ((setup_spans, True), (pass_spans, False)):
        for s in spans:
            add(f"{s.name}_s", s.duration, in_setup)
            add(f"{s.name}_calls", 1, in_setup)
            add(f"{s.name}.self_s", self_s[s.id], in_setup)
            for key, value in (s.attrs or {}).items():
                if key == "label":
                    add(f"{s.name}.self_s.{value}", self_s[s.id], in_setup)
                    add(f"{s.name}_s.{value}", s.duration, in_setup)
                else:
                    add(f"{s.name}.{key}", value, in_setup)
            if s.name == "sim.parallel.replicate":
                batched = has_descendant(s, "sim.batch.replicate_batched")
                add("sim.parallel.batched_calls", float(batched), in_setup)
                add("sim.parallel.fallback_calls", float(not batched), in_setup)
            # Worker-seconds on offer while cells ran: the busy ratios' base.
            elif s.name == "runs.scheduler.run_cells" and s.attrs and s.attrs["cells_run"]:
                add("runs.scheduler.capacity_s", PARALLELISM * s.duration, in_setup)
            elif s.name == "runs.net.serve" and s.attrs:
                add("runs.net.capacity_s", s.attrs["workers"] * s.duration, in_setup)

    def get(key: str) -> float:
        return totals.get(key, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    cell_walls = [w for r in traced for w in r.extras.get("cell_wall_s", ())]
    busy = sum(cell_walls) / n
    metrics = {
        "workloads.build_instance_s": get("workloads.build_instance_s"),
        "sim.schedule.active_mask_s": get("sim.schedule.active_mask_s"),
        "sim.schedule.active_mask_calls": get("sim.schedule.active_mask_calls"),
        "core.protocols.step_s": get("core.protocols.step.self_s"),
        "core.protocols.is_quiescent_s": get("core.protocols.is_quiescent_s"),
        "core.protocols.moves": get("core.protocols.step.moves"),
        "core.protocols.attempts": get("core.protocols.step.attempts"),
        "core.protocols.commit_ratio": ratio(
            get("core.protocols.step.moves"), get("core.protocols.step.attempts")),
        "core.state.satisfied_mask_s": get("core.state.satisfied_mask_s"),
        "core.state.satisfied_mask_calls": get("core.state.satisfied_mask_calls"),
        "core.state.cache_hit_ratio": ratio(
            sum(r.cache_hits for r in traced),
            sum(r.cache_hits + r.cache_misses for r in traced)),
        "sim.engine.run_s": get("sim.engine.run_s"),
        "sim.engine.self_s": get("sim.engine.run.self_s"),
        "sim.batch.replicate_batched_s": get("sim.batch.replicate_batched_s"),
        "sim.batch.rounds": get("sim.batch.replicate_batched.rounds"),
        "sim.batch.ns_per_user_round": 1e9 * ratio(
            get("sim.batch.replicate_batched_s"), get("sim.batch.replicate_batched.user_rounds")),
        "sim.batch.batch_support_s": get("sim.batch.batch_support_s"),
        "sim.parallel.replicate_s": get("sim.parallel.replicate_s"),
        "sim.parallel.self_s": get("sim.parallel.replicate.self_s"),
        "sim.parallel.batched_calls": get("sim.parallel.batched_calls"),
        "sim.parallel.fallback_calls": get("sim.parallel.fallback_calls"),
        "experiments.enumerate_s": get("experiments.enumerate_s"),
        "experiments.render_s": get("experiments.render_s"),
        "core.feasibility.max_satisfied_s": get("core.feasibility.max_satisfied_s"),
        "core.feasibility.max_satisfied_calls": get("core.feasibility.max_satisfied_calls"),
        "runs.scheduler.run_cells_s": get("runs.scheduler.run_cells_s"),
        "runs.scheduler.cells_run": get("runs.scheduler.run_cells.cells_run"),
        "runs.scheduler.cells_cached": get("runs.scheduler.run_cells.cells_cached"),
        "runs.scheduler.attempts": sum(r.extras.get("attempts", 0) for r in traced) / n,
        "runs.scheduler.cell_s_p50": _quantile(cell_walls, 0.50),
        "runs.scheduler.cell_s_p85": _quantile(cell_walls, 0.85),
        "runs.scheduler.cell_cpu_s": sum(r.extras.get("cell_cpu_s", 0.0) for r in traced) / n,
        "runs.scheduler.pool_busy_ratio": ratio(busy, get("runs.scheduler.capacity_s")),
        "runs.store.put_s": get("runs.store.put_s"),
        "runs.store.has_s": get("runs.store.has_s"),
        "runs.store.load_s": get("runs.store.load_s"),
        "runs.store.bytes": get("runs.store.put.bytes"),
        "runs.journal.append_s": get("runs.journal.append_s"),
        "runs.journal.records": get("runs.journal.append_calls"),
        "obs.aggregate.merge_s": get("obs.aggregate.merge_s"),
        "obs.aggregate.records": get("obs.aggregate.merge.records"),
        "obs.aggregate.bad_lines": get("obs.aggregate.merge.bad_lines"),
        "runs.net.serve_s": get("runs.net.serve_s"),
        "runs.net.workers": get("runs.net.serve.workers"),
        "runs.net.lease_expiries": get("runs.net.serve.lease_expiries"),
        "runs.net.bad_frames": get("runs.net.serve.bad_frames"),
        "runs.net.worker_busy_ratio": ratio(busy, get("runs.net.capacity_s")),
        "runs.sweep.cold_s": get("op.sweep.cold_s"),
        "runs.sweep.cached_s": get("op.sweep.cached_s"),
        # The allocator's cost as the kernel sees it: fresh temporaries
        # fault their pages in on every round.
        "process.sys_s": sum(r.sys_s for r in traced) / n,
        "process.minor_faults": sum(r.minor_faults for r in traced) / n,
    }
    for family in ("qos-sampling", "multi-probe", "permit", "neighborhood"):
        metrics[f"core.protocols.step_s.{family}"] = get(f"core.protocols.step.self_s.{family}")
    for eid in SWEEP_IDS:
        metrics[f"experiments.render_s.{eid}"] = get(f"experiments.render_s.{eid}")

    top = sum(s.duration for s in pass_spans if s.parent is None and s.name.startswith("op."))
    wall = sum(r.wall_s for r in traced) / n
    metrics["trace.coverage_pct"] = 100.0 * ratio(top / n, wall)
    untraced = _median([r.headline(headline_op) for r in plain])
    metrics["trace.overhead_pct"] = 100.0 * ratio(
        _median([r.headline(headline_op) for r in traced]) - untraced, untraced)
    return metrics
