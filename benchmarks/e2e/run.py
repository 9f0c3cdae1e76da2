"""End-to-end benchmark: one command, four workloads, every metric by name.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 0 --out results.json   # all four workloads
    python3 benchmarks/e2e/run.py --trace 1 --out traced.json   # plus the per-layer breakdown
    python3 benchmarks/e2e/run.py --workload sweep --seed 3 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --write-reference             # regenerate reference.json

Each workload runs in its own fresh child process, in a fixed order;
``setup_s`` comes from further fresh processes that only set up.  With
``--trace 1`` the per-layer numbers come from a separate traced child.
The metric names, units and bounds live in ``BENCHMARK.json`` at the
repository root.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics without tracing, per-layer metrics with it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import harness

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
REFERENCE = HERE / "reference.json"
REFERENCE_SCHEMA = "e2e-reference/v1"
RESULTS_SCHEMA = "e2e-results/v1"
WORKLOADS = ("replicate", "single-large", "sweep", "sweep-net")
#: Fresh set-up-only processes per untraced run; with the workload's own
#: set-up they give five ``setup_s`` samples.
SETUP_PROBES = 4
#: A run must end within 180 s; the child is killed well before that.
CHILD_TIMEOUT_S = 165.0


def summarize(values: list[float]) -> dict[str, Any]:
    """Median, quartiles (as ``statistics.quantiles`` gives them) and count."""
    median = statistics.median(values)
    if len(values) < 2:
        p25 = p75 = median
    else:
        p25, _, p75 = statistics.quantiles(values, n=4)
    return {"value": median, "p25": p25, "p75": p75, "n": len(values)}


# -- child processes --------------------------------------------------------


def _child_env() -> dict[str, str]:
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    src = str(ROOT / "src")
    return dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src,
                TMPDIR=str(tmp))


def run_child(argv: list[str], timeout: float) -> dict[str, Any]:
    """Run ``run.py --role ...`` in a fresh process group; its last stdout
    line is its JSON report.  On timeout the whole group is killed, pool
    workers and sweep workers included."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *argv],
        cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"child {argv} exceeded {timeout:.0f}s")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers of a finished child
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError(f"child {argv} exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _child_argv(role: str, workload: str, args: argparse.Namespace, *, trace: int,
                reference: Path | None, passes: int | None = None) -> list[str]:
    argv = ["--role", role, "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        argv.append("--smoke")
    if reference is not None:
        argv += ["--reference", str(reference)]
    if passes is not None:
        argv += ["--passes", str(passes)]
    return argv


def measure_workload(workload: str, args: argparse.Namespace, bench: dict[str, Any],
                     e2e: bool, trace: bool) -> dict[str, Any]:
    """The untraced run (``e2e``) and/or the traced run of one workload;
    each must finish within :data:`CHILD_TIMEOUT_S`."""
    reference = args.reference
    report: dict[str, Any] = {"attempted": 0, "failed": 0, "failures": []}

    def merge(child: dict[str, Any]) -> None:
        report["attempted"] += child["attempted"]
        report["failed"] += child["failed"]
        report["failures"] += child["failures"]
        report["checked"] = child["checked"]

    if e2e:
        deadline = time.monotonic() + CHILD_TIMEOUT_S
        setup = []
        for _ in range(0 if args.smoke else SETUP_PROBES):
            setup.append(run_child(
                _child_argv("setup", workload, args, trace=0, reference=None),
                deadline - time.monotonic())["setup_s"])
        child = run_child(_child_argv("run", workload, args, trace=0, reference=reference),
                          deadline - time.monotonic())
        merge(child)
        samples = child["samples"]
        samples["setup_s"] += setup
        report["metrics"] = {
            m["name"]: {**summarize(samples[m["name"]]), "unit": m["unit"]}
            for m in bench["end_to_end"]
        }
    if trace:
        child = run_child(_child_argv("run", workload, args, trace=1, reference=reference),
                          CHILD_TIMEOUT_S)
        merge(child)
        report["per_layer"] = {
            m["name"]: {"value": child["per_layer"][m["name"]], "unit": m["unit"]}
            for m in bench["per_layer"]
        }
    report["correct"] = report["failed"] == 0
    return report


# -- reference digests ------------------------------------------------------


def write_reference(args: argparse.Namespace) -> int:
    path = args.reference
    if path is None:
        print("--smoke --write-reference needs --reference PATH", file=sys.stderr)
        return 2
    data: dict[str, Any] = {}
    if path.exists():
        data = json.loads(path.read_text())
    if data.get("schema") != REFERENCE_SCHEMA or bool(data.get("smoke")) != args.smoke:
        data = {"schema": REFERENCE_SCHEMA, "smoke": args.smoke}
    names = [args.workload] if args.workload else ["replicate", "single-large", "sweep"]
    for name in names:
        if name in ("sweep", "sweep-net"):
            child = run_child(_child_argv("run", name, args, trace=0, reference=None, passes=1),
                              900.0)
            data["sweep"] = child["digests"][0]
            continue
        passes = 1 if args.smoke else harness.WORKLOADS[name].n_inputs
        data[name] = {}
        for seed in (0, 1):
            seeded = argparse.Namespace(**{**vars(args), "seed": seed})
            child = run_child(
                _child_argv("run", name, seeded, trace=0, reference=None, passes=passes), 900.0)
            data[name][str(seed)] = child["digests"]
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


def load_reference(path: Path | None, workload: str, seed: int, smoke: bool) -> Any:
    """This workload's digests for this seed, or ``None`` (invariants only)."""
    if path is None or not path.exists():
        return None
    data = json.loads(path.read_text())
    if data.get("schema") != REFERENCE_SCHEMA or bool(data.get("smoke")) != smoke:
        return None
    if workload in ("sweep", "sweep-net"):
        return data.get("sweep")
    return data.get(workload, {}).get(str(seed))


# -- entry points -----------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    workdir = WORK / f"{args.workload}.{os.getpid()}"
    workdir.mkdir(parents=True)
    reference = load_reference(args.reference, args.workload, args.seed, args.smoke)
    workload = harness.WORKLOADS[args.workload](args.seed, args.smoke, workdir, reference)
    try:
        if args.role == "setup":
            workload.build()
            workload.warmup()
            report: dict[str, Any] = {"setup_s": time.perf_counter() - started}
        else:
            report = harness.measure(
                workload, seconds=args.seconds, trace=bool(args.trace), passes=args.passes,
                started=started,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def render(results: dict[str, dict[str, Any]]) -> str:
    lines = []
    for workload, report in results.items():
        lines.append(f"== {workload}: {report['attempted']} operations, {report['failed']} "
                     f"failed, checked against {report.get('checked', '?')}")
        lines += [f"   ! {f}" for f in report["failures"][:5]]
        for name, m in report.get("metrics", {}).items():
            lines.append(f"   {name:<36} {m['value']:>14.6g} {m['unit']:<8} "
                         f"p25 {m['p25']:<11.6g} p75 {m['p75']:<11.6g} n={m['n']}")
        for name, m in report.get("per_layer", {}).items():
            lines.append(f"   {name:<36} {m['value']:>14.6g} {m['unit']}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four, in order)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every number, with quartiles, here")
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, one pass, no reference comparison")
    parser.add_argument("--reference", type=Path, default=None,
                        help=f"digest file (default: {REFERENCE.name}, none with --smoke)")
    parser.add_argument("--write-reference", action="store_true",
                        help="regenerate the reference digests instead of measuring")
    parser.add_argument("--role", choices=("setup", "run"), help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.role is not None:
        return child_main(args)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    if args.reference is None and not args.smoke:
        args.reference = REFERENCE
    if args.write_reference:
        return write_reference(args)

    single = args.workload is not None
    names = [args.workload] if single else list(WORKLOADS)
    # A lone traced run reports per-layer numbers only, so it skips the
    # untraced run whose end-to-end numbers it would not print.
    e2e = not (single and args.trace)
    results = {w: measure_workload(w, args, bench, e2e=e2e, trace=bool(args.trace))
               for w in names}
    print(render(results))
    if args.out is not None:
        args.out.write_text(json.dumps(
            {"schema": RESULTS_SCHEMA, "seed": args.seed, "seconds": args.seconds,
             "smoke": args.smoke, "trace": bool(args.trace), "workloads": results},
            indent=1, sort_keys=True) + "\n")

    key = "per_layer" if args.trace and single else "metrics"
    metrics = {
        (name if single else f"{w}.{name}"): {"value": m["value"], "unit": m["unit"]}
        for w, report in results.items() for name, m in report.get(key, {}).items()
    }
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
