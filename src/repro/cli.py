"""Command-line interface: run experiments and one-off simulations.

Installed as ``repro-qoslb`` (also ``python -m repro``)::

    repro-qoslb list                         # experiment catalogue
    repro-qoslb run F1 --scale ci            # one experiment, print table
    repro-qoslb all --scale full --out out/  # the whole suite, saved
    repro-qoslb simulate --generator uniform_slack --gen-arg n=2000 \\
        --gen-arg m=64 --gen-arg slack=0.25 --protocol permit --seed 7
    repro-qoslb fluid --n 100000 --m 64      # mean-field trajectory forecast
    repro-qoslb churn --rho 0.9              # steady-state QoS under churn
    repro-qoslb sweep F1 --serve 0.0.0.0:7341 --out sweep/   # coordinator
    repro-qoslb runs worker --connect host:7341              # remote worker
    repro-qoslb run F1 --store sweep/store --render-only     # figures, no compute
    repro-qoslb runs gc sweep/ --max-age 30 --max-bytes 512M # LRU store pruning
    repro-qoslb bench --scale smoke          # perf harness -> BENCH_engine.json
    repro-qoslb bench --out bench-history/   # dated artifact into an existing directory
    repro-qoslb trend BENCH_*.json           # perf trend across bench artifacts
    repro-qoslb trend bench-history/ --gate  # statistical perf-regression verdict
    repro-qoslb runs watch sweep/            # live dashboard over a running sweep
    repro-qoslb trace-report run.jsonl       # summarize an obs event file
    repro-qoslb trace-report sweep/ --top-functions 15   # cProfile view
    repro-qoslb demo                         # 30-second guided tour
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

__all__ = ["main"]


def _parse_value(text: str):
    """Parse ``key=value`` values: int, float, bool, comma-tuple, else string."""
    if "," in text:
        return tuple(_parse_value(part) for part in text.split(",") if part)
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def _kv_args(pairs: list[str]) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key] = _parse_value(value)
    return out


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS

    print(f"{'id':4s}  description")
    print("-" * 60)
    for eid, exp in sorted(EXPERIMENTS.items()):
        print(f"{eid:4s}  {exp.description}")
    return 0


def _save_result(result, out_dir: Path, scale: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_dir / f"{result.experiment_id.lower()}_{scale}"
    stem.with_suffix(".txt").write_text(result.render() + "\n")
    payload = {
        "experiment_id": result.experiment_id,
        "title": result.title,
        "headers": result.headers,
        "rows": [[None if v is None else v for v in row] for row in result.rows],
        "findings": result.findings,
    }
    stem.with_suffix(".json").write_text(json.dumps(payload, indent=2, default=str))
    print(f"[saved {stem}.txt / .json]")


def _store_context(store_arg: str | None, *, render_only: bool = False):
    """Activate the content-addressed cell store for ``run``/``all``."""
    from contextlib import nullcontext

    if not store_arg:
        return nullcontext()
    from .runs.store import use_store

    return use_store(store_arg, render_only=render_only)


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments import UnknownParameterError, get_experiment
    from .runs.store import MissingCellError

    if args.render_only and not args.store:
        raise SystemExit("--render-only needs --store DIR (the sweep store to render from)")
    try:
        exp = get_experiment(args.experiment)
    except KeyError as exc:
        raise SystemExit(exc.args[0]) from None
    overrides = {"workers": args.workers, **_kv_args(args.set or [])}
    started = time.time()
    try:
        with _store_context(args.store, render_only=args.render_only):
            result = exp.run(args.scale, **overrides)
    except MissingCellError as exc:
        raise SystemExit(f"render-only: {exc.args[0]}") from exc
    except UnknownParameterError as exc:
        raise SystemExit(str(exc)) from None
    print(result.render())
    print(f"[{time.time() - started:.1f}s]")
    if args.out:
        _save_result(result, Path(args.out), args.scale)
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS

    failures = []
    with _store_context(args.store):
        for eid, exp in sorted(EXPERIMENTS.items()):
            print(f"\n=== {eid} ===")
            try:
                started = time.time()
                result = exp.run(args.scale, workers=args.workers)
                print(result.render())
                print(f"[{time.time() - started:.1f}s]")
                if args.out:
                    _save_result(result, Path(args.out), args.scale)
            except Exception as exc:  # pragma: no cover - operator feedback
                failures.append((eid, exc))
                print(f"FAILED: {exc!r}")
    if failures:
        print(f"\n{len(failures)} experiment(s) failed: {[e for e, _ in failures]}")
        return 1
    return 0


def _sweep_overrides(pairs: list[str], experiments: list[str]) -> tuple[list[str], dict]:
    """The sweep's ids (default: every sweepable experiment) and each one's
    overrides from ``[EID.]KEY=VALUE`` pairs; an ``EID.`` target outside
    the sweep is an error."""
    from .runs import sweepable_experiments

    shared: dict = {}
    per_exp: dict[str, dict] = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"expected [EID.]KEY=VALUE, got {pair!r}")
        key, value = pair.split("=", 1)
        if "." in key:
            eid, key = key.split(".", 1)
            per_exp.setdefault(eid.upper(), {})[key] = _parse_value(value)
        else:
            shared[key] = _parse_value(value)
    ids = [e.upper() for e in experiments] or sweepable_experiments()
    unknown = set(per_exp) - set(ids)
    if unknown:
        raise SystemExit(f"--set targets experiments not in this sweep: {sorted(unknown)}")
    return ids, {eid: {**shared, **per_exp.get(eid, {})} for eid in ids}


def _serve_sweep_cli(args: argparse.Namespace, *, timeout, retries) -> dict:
    """The ``sweep --serve`` path: coordinate over TCP instead of a pool."""
    from .runs import DEFAULT_LEASE_TTL_S, serve_sweep
    from .runs.net import parse_address
    from .runs.sweep import read_sweep_config

    if args.profile:
        raise SystemExit("--serve cannot --profile: cells execute on remote workers")
    if args.max_cells is not None:
        raise SystemExit("--serve runs the sweep to completion; drop --max-cells")
    if args.workers is not None:
        raise SystemExit("--serve leases cells to network workers; drop --workers")
    host, port = parse_address(args.serve, default_host="0.0.0.0")
    if args.resume:
        # Coordinator restart: re-serve the journalled configuration from
        # the same sweep dir — committed cells are cache hits.
        if args.experiments or args.set or args.no_events:
            raise SystemExit(
                "--resume reuses the journalled configuration; drop the "
                "experiment ids / --set / --no-events overrides"
            )
        try:
            config = read_sweep_config(args.resume)
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        out = args.resume
        ids = config["experiments"]
        scale = config.get("scale", "ci")
        overrides = config.get("overrides") or {}
        events = bool(config.get("events", True))
    else:
        ids, overrides = _sweep_overrides(args.set or [], args.experiments)
        out, scale, events = args.out, args.scale, not args.no_events
    return serve_sweep(
        ids,
        out=out,
        host=host,
        port=port,
        scale=scale,
        overrides=overrides,
        retries=retries,
        timeout=timeout,
        lease_ttl_s=DEFAULT_LEASE_TTL_S if args.lease_ttl is None else args.lease_ttl,
        events=events,
        force=args.force,
        on_listen=lambda addr: print(
            f"[serving runs-net/v1 on {addr[0]}:{addr[1]} — connect workers with "
            f"`repro-qoslb runs worker --connect HOST:{addr[1]}`]",
            file=sys.stderr,
            flush=True,
        ),
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments import UnknownParameterError
    from .obs import HUB
    from .runs import DEFAULT_RETRIES, DEFAULT_TIMEOUT, resume_sweep, run_sweep

    timeout = DEFAULT_TIMEOUT if args.timeout is None else args.timeout
    retries = DEFAULT_RETRIES if args.retries is None else args.retries
    if args.obs_out:
        HUB.enable(args.obs_out, command="sweep")
    try:
        if args.serve:
            summary = _serve_sweep_cli(args, timeout=timeout, retries=retries)
        elif args.resume:
            if args.experiments or args.set or args.no_events or args.profile:
                raise SystemExit(
                    "--resume reuses the journalled configuration; drop the "
                    "experiment ids / --set / --no-events / --profile overrides"
                )
            summary = resume_sweep(
                args.resume,
                workers=args.workers,  # None = reuse the journalled count
                timeout=timeout,
                retries=retries,
                max_cells=args.max_cells,
            )
        else:
            ids, overrides = _sweep_overrides(args.set or [], args.experiments)
            summary = run_sweep(
                ids,
                out=args.out,
                scale=args.scale,
                workers=0 if args.workers is None else args.workers,
                force=args.force,
                timeout=timeout,
                retries=retries,
                max_cells=args.max_cells,
                overrides=overrides,
                events=not args.no_events,
                profile=args.profile,
            )
    except UnknownParameterError as exc:
        raise SystemExit(str(exc)) from None
    finally:
        if args.obs_out:
            HUB.disable()
    print(
        f"sweep {summary['out']}: {summary['cells']} cell(s) — "
        f"{summary['cached']} cached, {summary['run']} run, "
        f"{summary['failed']} failed, {summary['deferred']} deferred "
        f"[{summary['wall_s']:.1f}s]"
    )
    if "served" in summary:
        print(
            f"[served on {summary['served']['host']}:{summary['served']['port']}: "
            f"{summary['workers']} worker(s), {summary['lease_expiries']} lease "
            f"expiry(ies), {summary['bad_frames']} bad frame(s)]"
        )
    timeline = summary.get("timeline")
    if timeline:
        print(
            f"[timeline {timeline['out']}: {timeline['records']} event(s) "
            f"from {timeline['cells']} cell(s)]"
        )
    for failure in summary["failures"]:
        print(
            f"  FAILED {failure['experiment_id']}/{failure['label']} "
            f"after {failure['attempts']} attempt(s): {failure['error']}",
            file=sys.stderr,
        )
    if args.obs_out:
        print(f"[obs events -> {args.obs_out}]", file=sys.stderr)
    return 1 if summary["failed"] else 0


def _runs_store_dir(path: str) -> Path:
    """Accept either a sweep directory (containing ``store/``) or a bare store."""
    d = Path(path)
    return d / "store" if (d / "store").is_dir() else d


def _cmd_runs_status(args: argparse.Namespace) -> int:
    from .runs import render_status, sweep_status

    status = sweep_status(args.dir)
    print(render_status(status))
    return 1 if status["totals"]["failed"] else 0


def _cmd_runs_watch(args: argparse.Namespace) -> int:
    from .runs import watch

    try:
        return watch(
            args.dir,
            interval=args.interval,
            once=args.once,
            follow=args.follow,
            max_rows=args.max_rows,
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _cmd_runs_workers(args: argparse.Namespace) -> int:
    from .runs import render_workers, workers_roster

    rows = workers_roster(args.dir)
    if rows is None:
        print(
            f"no worker table under {args.dir} (workers.json missing or "
            "unreadable): not a distributed sweep, or its coordinator has "
            "not started",
            file=sys.stderr,
        )
        return 1
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(render_workers(rows, max_rows=args.max_rows))
    return 0


def _parse_bytes(text: str) -> int:
    """``"512M"``-style size: plain bytes or a K/M/G-suffixed count."""
    text = text.strip()
    scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(text[-1:].upper())
    try:
        if scale is not None:
            return int(float(text[:-1]) * scale)
        return int(text)
    except ValueError:
        raise SystemExit(f"expected a byte count like 1048576 or 512M, got {text!r}")


def _cmd_runs_gc(args: argparse.Namespace) -> int:
    from .runs import ResultStore

    store = ResultStore(_runs_store_dir(args.dir))
    if args.max_age is not None or args.max_bytes is not None:
        report = store.prune(
            max_age_s=None if args.max_age is None else args.max_age * 86400.0,
            max_bytes=None if args.max_bytes is None else _parse_bytes(args.max_bytes),
            dry_run=args.dry_run,
        )
        verb = "would evict" if report["dry_run"] else "evicted"
        print(
            f"gc {args.dir}: kept {report['kept']} ({report['kept_bytes']} bytes), "
            f"{verb} {report['removed']} LRU payload(s) ({report['freed_bytes']} bytes)"
        )
    else:
        report = store.gc(all_versions=args.all_versions, dry_run=args.dry_run)
        verb = "would remove" if report["dry_run"] else "removed"
        print(
            f"gc {args.dir}: kept {report['kept']}, {verb} {report['removed']} "
            f"payload(s) ({report['freed_bytes']} bytes)"
        )
    for key in report["removed_keys"]:
        print(f"  - {key}")
    return 0


def _cmd_runs_worker(args: argparse.Namespace) -> int:
    from .runs import run_worker

    try:
        report = run_worker(
            args.connect,
            poll=args.poll,
            max_cells=args.max_cells,
        )
    except (ConnectionError, OSError) as exc:
        print(f"worker: lost coordinator at {args.connect}: {exc}", file=sys.stderr)
        return 2
    print(
        f"worker {report['worker']} @ {report['host']}:{report['port']}: "
        f"{report['executed']} cell(s) executed, {report['failed']} failed"
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .obs import HUB
    from .registry import build_instance, build_protocol, build_schedule
    from .sim.engine import run

    instance = build_instance(args.generator, **_kv_args(args.gen_arg or []))
    protocol = build_protocol(args.protocol, **_kv_args(args.proto_arg or []))
    schedule = build_schedule(args.schedule, **_kv_args(args.sched_arg or []))
    obs_out = getattr(args, "obs_out", None)
    if obs_out:
        HUB.enable(
            obs_out,
            command="simulate",
            generator=args.generator,
            protocol=args.protocol,
            seed=args.seed,
        )
    try:
        result = run(
            instance,
            protocol,
            seed=args.seed,
            schedule=schedule,
            max_rounds=args.max_rounds,
            initial=args.initial,
        )
    finally:
        if obs_out:
            HUB.disable()
    print(json.dumps(result.summary(), indent=2, default=str))
    if obs_out:
        print(f"[obs events -> {obs_out}]", file=sys.stderr)
    return 0 if result.converged else 2


def _cmd_trend(args: argparse.Namespace) -> int:
    from .obs import render_trend

    paths: list[Path] = []
    for arg in args.paths:
        path = Path(arg)
        if path.is_dir():  # a bench history directory of dated artifacts
            paths.extend(sorted(path.glob("*.json")))
        else:
            paths.append(path)
    if not args.paths:
        paths = sorted(Path(".").glob("BENCH_engine*.json"))
    if not paths:
        print("no bench artifacts found (expected BENCH_engine*.json)", file=sys.stderr)
        return 2
    if args.gate:
        from .obs import gate, render_gate

        result = gate(paths, band=args.gate_band)
        # JSON on stdout is the contract (CI parses it); the table is
        # operator garnish on stderr.
        print(json.dumps(result, indent=2, sort_keys=True))
        print(render_gate(result), file=sys.stderr)
        return 1 if result["verdict"] == "regressed" else 0
    print(render_trend(paths))
    return 0


def _cmd_trace_report(args: argparse.Namespace) -> int:
    from .obs import render_profiles, render_report, summarize_events

    path = Path(args.path)
    if args.top_functions or path.suffix == ".pstats":
        print(render_profiles(path, top=args.top_functions or 15))
        return 0
    print(render_report(summarize_events(path), top=args.top))
    return 0


def _cmd_fluid(args: argparse.Namespace) -> int:
    import math

    import numpy as np

    from .fluid import FluidSystem, run_fluid
    from .viz import sparkline

    q = math.ceil(args.n / (args.m * (1.0 - args.slack)))
    system = FluidSystem(
        m=args.m,
        thetas=np.asarray([q / args.n]),
        masses=np.asarray([1.0]),
        p=args.p,
    )
    traj = run_fluid(system, initial=args.initial, eps=args.eps)
    print(
        f"fluid forecast: n={args.n}, m={args.m}, slack={args.slack:g} "
        f"(q={q}), p={args.p:g}, start={args.initial}"
    )
    print(f"unsatisfied mass per round: {sparkline(traj.unsatisfied, lo=0.0)}")
    print("  " + " -> ".join(f"{u:.4f}" for u in traj.unsatisfied[:12]))
    below = traj.first_below(args.eps)
    print(
        f"rounds to unsatisfied mass <= {args.eps:g}: "
        f"{below if below is not None else f'>{traj.rounds} (budget)'}"
    )
    return 0


def _cmd_churn(args: argparse.Namespace) -> int:
    from .registry import build_protocol
    from .sim.opensystem import run_open_system
    from .viz import sparkline

    lam = args.rho * args.m * args.q * args.departure_prob
    result = run_open_system(
        m=args.m,
        arrival_rate=lam,
        departure_prob=args.departure_prob,
        threshold_sampler=float(args.q),
        protocol=build_protocol(args.protocol),
        rounds=args.rounds,
        warmup=args.warmup,
        seed=args.seed,
    )
    print(
        f"open system: m={args.m}, q={args.q}, rho={args.rho:g} "
        f"(arrival rate {lam:.2f}/round, mean lifetime "
        f"{1 / args.departure_prob:.0f} rounds), protocol={args.protocol}"
    )
    print(f"satisfied fraction: {sparkline(result.satisfied_fraction, lo=0.0, hi=1.0)}")
    print(f"population:         {sparkline(result.population.astype(float))}")
    for key, value in result.summary().items():
        print(f"  {key}: {value:.4g}" if isinstance(value, float) else f"  {key}: {value}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import render_bench, run_bench

    out = Path(args.out)
    if out.is_dir():
        # Dated artifact into a history directory — `trend <dir>` reads them
        # back in chronological (= lexicographic) order; microseconds keep
        # two fast runs in the same second apart.
        from datetime import datetime, timezone

        stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S.%fZ")
        out = out / f"BENCH_engine-{stamp}.json"
    payload = run_bench(
        scale=args.scale, out=out, repeats=args.repeats, seed=args.seed, only=args.only
    )
    print(render_bench(payload))
    print(f"[wrote {out}]")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    from . import (
        PermitProtocol,
        QoSSamplingProtocol,
        is_feasible,
        optimal_assignment,
        run,
        workloads,
    )

    print("QoS load balancing — 30-second tour")
    print("-----------------------------------")
    inst = workloads.uniform_slack(n=2000, m=64, slack=0.2)
    print(f"instance: {inst.name}  (feasible: {is_feasible(inst)})")
    opt = optimal_assignment(inst)
    print(f"centralized optimal: satisfying = {opt.is_satisfying()}")
    for protocol in (QoSSamplingProtocol(), PermitProtocol()):
        result = run(inst, protocol, seed=42, initial="pile")
        print(
            f"{protocol.name:28s} status={result.status:10s} "
            f"rounds={result.rounds:3d} moves={result.total_moves}"
        )
    print("(see `repro-qoslb list` for the full experiment suite)")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-qoslb",
        description="Distributed QoS load balancing — reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiment suite").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="run one experiment")
    p_run.add_argument("experiment", help="experiment id (F1..F13, T1..T5)")
    p_run.add_argument("--scale", choices=("ci", "full"), default="ci")
    p_run.add_argument("--out", help="directory for .txt/.json outputs")
    p_run.add_argument("--workers", type=int, default=0, help="process pool size")
    p_run.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override an experiment parameter (repeatable)",
    )
    p_run.add_argument(
        "--store",
        metavar="DIR",
        help="content-addressed cell store: reuse cached cells, save new ones",
    )
    p_run.add_argument(
        "--render-only",
        action="store_true",
        help="render strictly from --store: a missing cell fails loudly "
        "instead of silently recomputing",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser("all", help="run the whole suite")
    p_all.add_argument("--scale", choices=("ci", "full"), default="ci")
    p_all.add_argument("--out", help="directory for .txt/.json outputs")
    p_all.add_argument("--workers", type=int, default=0)
    p_all.add_argument("--store", metavar="DIR", help="content-addressed cell store")
    p_all.set_defaults(fn=_cmd_all)

    p_sweep = sub.add_parser(
        "sweep", help="resumable cached sweep over experiment cells"
    )
    p_sweep.add_argument(
        "experiments",
        nargs="*",
        help="experiment ids (default: every experiment with a cell decomposition)",
    )
    p_sweep.add_argument("--scale", choices=("ci", "full"), default="ci")
    p_sweep.add_argument("--out", default="sweep", help="sweep directory (default: sweep/)")
    p_sweep.add_argument(
        "--resume",
        metavar="DIR",
        help="continue an interrupted sweep from its journalled configuration",
    )
    p_sweep.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process pool size (0/1 = serial; --resume defaults to the journalled count)",
    )
    p_sweep.add_argument(
        "--force", action="store_true", help="recompute cells even when cached"
    )
    p_sweep.add_argument(
        "--timeout", type=float, default=None, help="per-cell wall-clock budget (seconds)"
    )
    p_sweep.add_argument(
        "--retries", type=int, default=None, help="extra attempts per failing cell"
    )
    p_sweep.add_argument(
        "--max-cells", type=int, default=None, help="cap on cells executed this invocation"
    )
    p_sweep.add_argument(
        "--set",
        action="append",
        metavar="[EID.]KEY=VALUE",
        help="override an experiment parameter; prefix with the experiment id "
        "to scope it (repeatable; commas parse as tuples)",
    )
    p_sweep.add_argument(
        "--obs-out", metavar="PATH", help="record sweep telemetry to this JSONL file"
    )
    p_sweep.add_argument(
        "--no-events",
        action="store_true",
        help="skip per-cell event shipping and the merged timeline (on by default)",
    )
    p_sweep.add_argument(
        "--profile",
        action="store_true",
        help="cProfile every cell into <out>/profiles/*.pstats "
        "(view with trace-report --top-functions)",
    )
    p_sweep.add_argument(
        "--serve",
        metavar="[HOST:]PORT",
        help="coordinate this sweep over TCP (runs-net/v1) instead of a local "
        "pool: lease cells to `runs worker --connect` processes until complete "
        "(with --resume: re-serve an interrupted distributed sweep)",
    )
    p_sweep.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="reclaim a leased cell after this long without a heartbeat "
        "(--serve only; default 30)",
    )
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_runs = sub.add_parser("runs", help="inspect and maintain sweep directories")
    runs_sub = p_runs.add_subparsers(dest="runs_command", required=True)
    p_status = runs_sub.add_parser("status", help="per-experiment sweep progress")
    p_status.add_argument("dir", help="sweep directory (journal.jsonl + store/)")
    p_status.set_defaults(fn=_cmd_runs_status)
    p_watch = runs_sub.add_parser(
        "watch", help="live dashboard over a sweep's journal and event files"
    )
    p_watch.add_argument("dir", help="sweep directory (journal.jsonl + events/)")
    p_watch.add_argument(
        "--interval", type=float, default=2.0, help="refresh period in seconds"
    )
    p_watch.add_argument(
        "--once", action="store_true", help="render a single frame and exit (CI mode)"
    )
    p_watch.add_argument(
        "--follow", action="store_true", help="keep watching after the sweep completes"
    )
    p_watch.add_argument(
        "--max-rows", type=int, default=12, help="cap on per-cell rows shown per section"
    )
    p_watch.set_defaults(fn=_cmd_runs_watch)
    p_workers = runs_sub.add_parser(
        "workers",
        help="roster of a distributed sweep's workers (host, heartbeat age, "
        "leased cell, expired-lease flag) from the coordinator's workers.json",
    )
    p_workers.add_argument("dir", help="sweep directory (workers.json)")
    p_workers.add_argument(
        "--json", action="store_true", help="machine-readable rows instead of a table"
    )
    p_workers.add_argument(
        "--max-rows", type=int, default=50, help="cap on worker rows shown"
    )
    p_workers.set_defaults(fn=_cmd_runs_workers)
    p_gc = runs_sub.add_parser(
        "gc",
        help="drop stale store payloads (other versions, corrupt files); "
        "with --max-age/--max-bytes, evict least-recently-used cells instead",
    )
    p_gc.add_argument("dir", help="sweep directory or bare store directory")
    p_gc.add_argument(
        "--all-versions",
        action="store_true",
        help="remove every payload, current version included (full cache wipe)",
    )
    p_gc.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="DAYS",
        help="evict payloads not consulted for this many days",
    )
    p_gc.add_argument(
        "--max-bytes",
        default=None,
        metavar="N",
        help="evict coldest payloads until the store fits this budget "
        "(plain bytes or K/M/G-suffixed, e.g. 512M)",
    )
    p_gc.add_argument("--dry-run", action="store_true")
    p_gc.set_defaults(fn=_cmd_runs_gc)
    p_worker = runs_sub.add_parser(
        "worker",
        help="execute leased cells from a `sweep --serve` coordinator over TCP",
    )
    p_worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator's runs-net/v1 address",
    )
    p_worker.add_argument(
        "--poll",
        type=float,
        default=0.5,
        help="idle re-ask period while other workers hold the last leases",
    )
    p_worker.add_argument(
        "--max-cells", type=int, default=None, help="disconnect after this many cells"
    )
    p_worker.set_defaults(fn=_cmd_runs_worker)

    p_sim = sub.add_parser("simulate", help="one ad-hoc simulation run")
    p_sim.add_argument("--generator", required=True)
    p_sim.add_argument("--gen-arg", action="append", metavar="KEY=VALUE")
    p_sim.add_argument("--protocol", default="qos-sampling")
    p_sim.add_argument("--proto-arg", action="append", metavar="KEY=VALUE")
    p_sim.add_argument("--schedule", default="synchronous")
    p_sim.add_argument("--sched-arg", action="append", metavar="KEY=VALUE")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--max-rounds", type=int, default=100_000)
    p_sim.add_argument("--initial", choices=("random", "pile"), default="random")
    p_sim.add_argument(
        "--obs-out",
        metavar="PATH",
        help="record telemetry (spans, counters, per-round events) to this JSONL file",
    )
    p_sim.set_defaults(fn=_cmd_simulate)

    p_fluid = sub.add_parser("fluid", help="mean-field trajectory forecast")
    p_fluid.add_argument("--n", type=int, default=100_000)
    p_fluid.add_argument("--m", type=int, default=64)
    p_fluid.add_argument("--slack", type=float, default=0.25)
    p_fluid.add_argument("--p", type=float, default=0.5)
    p_fluid.add_argument("--initial", choices=("pile", "uniform"), default="pile")
    p_fluid.add_argument("--eps", type=float, default=1e-6)
    p_fluid.set_defaults(fn=_cmd_fluid)

    p_churn = sub.add_parser("churn", help="steady-state QoS under churn")
    p_churn.add_argument("--m", type=int, default=32)
    p_churn.add_argument("--q", type=int, default=16)
    p_churn.add_argument("--rho", type=float, default=0.9)
    p_churn.add_argument("--departure-prob", type=float, default=0.05)
    p_churn.add_argument("--rounds", type=int, default=400)
    p_churn.add_argument("--warmup", type=int, default=100)
    p_churn.add_argument("--protocol", default="qos-sampling")
    p_churn.add_argument("--seed", type=int, default=0)
    p_churn.set_defaults(fn=_cmd_churn)

    p_bench = sub.add_parser(
        "bench", help="engine perf harness -> BENCH_engine.json + table"
    )
    p_bench.add_argument("--scale", choices=("smoke", "full"), default="smoke")
    p_bench.add_argument(
        "--out",
        default="BENCH_engine.json",
        help="artifact path; an existing directory receives a dated BENCH_engine-*.json",
    )
    p_bench.add_argument("--repeats", type=int, default=None)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument(
        "--only",
        default=None,
        help="run only cells whose name matches this glob/prefix "
        "(e.g. 'engine/huge' for the million-user memory-audit cells)",
    )
    p_bench.set_defaults(fn=_cmd_bench)

    p_trend = sub.add_parser(
        "trend", help="render a perf trend table over BENCH_engine.json artifacts"
    )
    p_trend.add_argument(
        "paths",
        nargs="*",
        help="bench artifacts (default: BENCH_engine*.json in the current directory)",
    )
    p_trend.add_argument(
        "--gate",
        action="store_true",
        help="statistical regression verdict instead of the trend table: newest "
        "artifact vs the noise band of the rest; JSON on stdout, exit 1 on regression",
    )
    p_trend.add_argument(
        "--gate-band",
        type=float,
        default=0.10,
        metavar="FRAC",
        help="noise-band floor as a fraction (default 0.10 = 10%%)",
    )
    p_trend.set_defaults(fn=_cmd_trend)

    p_report = sub.add_parser(
        "trace-report", help="summarize an obs-events/v1 JSONL telemetry file"
    )
    p_report.add_argument(
        "path",
        help="event file written by the telemetry hub, a .pstats profile, "
        "or a sweep/profiles directory",
    )
    p_report.add_argument("--top", type=int, default=12, help="spans shown (by total time)")
    p_report.add_argument(
        "--top-functions",
        type=int,
        nargs="?",
        const=15,
        default=None,
        metavar="N",
        help="render cProfile .pstats top functions instead of the event report",
    )
    p_report.set_defaults(fn=_cmd_trace_report)

    sub.add_parser("demo", help="30-second guided tour").set_defaults(fn=_cmd_demo)

    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
