"""Sweep orchestration: enumerate cells, run them durably, resume, inspect.

A sweep directory is self-describing::

    <out>/
      journal.jsonl   # runs-journal/v1: header (config) + cell records
      store/          # runs-cell/v1 payloads, content-addressed
      events/         # per-cell obs-events/v1 files (workers write these)
      timeline.jsonl  # merged sweep-wide event timeline (coordinator)
      profiles/       # per-cell .pstats, only under profile=True
      summary.json    # last invocation's summary

:func:`run_sweep` enumerates the cell decomposition of the requested
experiments (``ExperimentDef.list_cells`` — nothing simulates during
enumeration), journals the configuration, and hands the cells to the
local process pool; :func:`~repro.runs.net.serve_sweep` hands them to the
TCP coordinator instead, through the same :func:`drive_sweep`.  Because
finished cells live in the content-addressed store,
*resume is just re-running the same sweep*: :func:`resume_sweep` reads
the journalled configuration, re-enumerates identical cells, and every
finished cell is a cache hit — only unfinished (or failed) cells
execute.  ``force=True`` ignores the store and recomputes everything.

Experiments without a cell decomposition (F8, F11, F12, F13, T3 — their
runners drive simulations directly) are not sweepable; asking for one is
an error, and the default experiment list is exactly the sweepable set.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Any, Callable

from ..obs import HUB as _OBS
from ..obs.aggregate import merge_events
from .journal import Journal, read_journal
from .scheduler import DEFAULT_RETRIES, DEFAULT_TIMEOUT, run_cells
from .store import CellSpec, ResultStore

__all__ = [
    "sweepable_experiments",
    "enumerate_sweep",
    "drive_sweep",
    "run_sweep",
    "read_sweep_config",
    "resume_sweep",
    "sweep_status",
    "render_status",
]


def sweepable_experiments() -> list[str]:
    """Experiment ids with a cell decomposition, in catalogue order."""
    from ..experiments import EXPERIMENTS  # lazy: experiments imports runs.store

    return [eid for eid, d in sorted(EXPERIMENTS.items()) if d.cells is not None]


def enumerate_sweep(
    experiment_ids: list[str],
    scale: str = "ci",
    overrides: dict[str, dict[str, Any]] | None = None,
) -> list[CellSpec]:
    """All cells of the requested experiments (nothing is executed)."""
    from ..experiments import get_experiment

    cells: list[CellSpec] = []
    for eid in experiment_ids:
        definition = get_experiment(eid)
        key = definition.experiment_id
        if definition.cells is None:
            raise ValueError(
                f"{key} has no cell decomposition (its runner drives simulations "
                f"directly); sweepable: {sweepable_experiments()}"
            )
        per_exp = dict((overrides or {}).get(key, {}))
        cells.extend(definition.list_cells(scale, **per_exp))
    return cells


def _normalise_overrides(overrides: dict[str, dict[str, Any]] | None) -> dict[str, dict[str, Any]]:
    """JSON-roundtrip the overrides so a resumed sweep re-enumerates the
    exact same cells the original journalled (tuples become lists either
    way; generator kwargs accept both)."""
    return json.loads(json.dumps(overrides or {}, default=str))


def drive_sweep(
    experiment_ids: list[str] | None,
    *,
    out: str | Path,
    scale: str,
    overrides: dict[str, dict[str, Any]] | None,
    transport: dict[str, Any],
    drain: Callable[[list[CellSpec], ResultStore, Journal, Path], dict[str, Any]],
) -> dict[str, Any]:
    """The sweep-directory driver shared by :func:`run_sweep` and
    :func:`~repro.runs.net.serve_sweep`.

    Enumerates the cells, journals the configuration — experiments,
    scale and overrides plus the ``transport``'s own knobs, everything a
    resume needs — and hands cells, store, journal and directory to
    ``drain``, the transport that empties the cell queue and returns its
    summary.  Then it merges the shipped per-cell events into the sweep
    timeline and writes ``summary.json``.
    """
    ids = [e.upper() for e in experiment_ids] if experiment_ids else sweepable_experiments()
    overrides = _normalise_overrides(overrides)
    config = {"experiments": ids, "scale": scale, "overrides": overrides, **transport}
    # Enumerate first: a sweep that cannot enumerate leaves no directory.
    cells = enumerate_sweep(ids, scale, overrides)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store = ResultStore(out_dir / "store")
    started_unix = time.time()
    with Journal(out_dir / "journal.jsonl", sweep=config) as journal:
        summary = drain(cells, store, journal, out_dir)
    if config["events"]:
        summary["timeline"] = merge_events(out_dir / "events")
    summary.update(experiments=ids, scale=scale, out=str(out_dir), started_unix=started_unix)
    (out_dir / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True, default=str) + "\n"
    )
    return summary


def run_sweep(
    experiment_ids: list[str] | None = None,
    *,
    out: str | Path,
    scale: str = "ci",
    workers: int | None = 0,
    force: bool = False,
    timeout: float | None = DEFAULT_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    max_cells: int | None = None,
    overrides: dict[str, dict[str, Any]] | None = None,
    events: bool = True,
    profile: bool = False,
) -> dict[str, Any]:
    """Run (or continue) a sweep into ``out``; returns the summary.

    Invoking the same sweep twice is idempotent: the second run is 100%
    cache hits.  Killing it mid-flight loses at most the in-flight cells;
    the journal and store keep everything finished.

    ``events`` (default on) ships per-cell telemetry: every worker writes
    ``events/cell-<key>.jsonl`` while running its cell, and after the
    batch the coordinator merges them into ``timeline.jsonl`` — the merge
    also runs on a killed-and-resumed sweep, so the timeline always
    reflects every cell that ever executed here.  ``profile`` (opt-in)
    adds per-cell cProfile stats under ``profiles/``.  Both are execution
    knobs: journalled for resume, invisible to cache keys.
    """

    def drain(cells: list[CellSpec], store: ResultStore, journal: Journal, out_dir: Path) -> dict:
        with _OBS.span("runs.sweep"):
            return run_cells(
                cells, store=store, journal=journal, workers=workers, timeout=timeout,
                retries=retries, force=force, max_cells=max_cells,
                events_dir=out_dir / "events" if events else None,
                profile_dir=out_dir / "profiles" if profile else None,
            )

    transport = {"workers": workers, "events": bool(events), "profile": bool(profile)}
    return drive_sweep(
        experiment_ids, out=out, scale=scale, overrides=overrides, transport=transport, drain=drain
    )


def read_sweep_config(out: str | Path) -> dict[str, Any]:
    """The configuration journalled by the sweep in ``out`` (for resuming it)."""
    out_dir = Path(out)
    config = read_journal(out_dir / "journal.jsonl")["meta"].get("sweep", {})
    if not config.get("experiments"):
        raise ValueError(f"{out_dir}: journal header carries no sweep configuration")
    return config


def resume_sweep(
    out: str | Path,
    *,
    workers: int | None = None,
    timeout: float | None = DEFAULT_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    max_cells: int | None = None,
) -> dict[str, Any]:
    """Continue an interrupted sweep: only unfinished cells execute.

    The configuration comes from the journal header, so the resumed
    invocation enumerates exactly the cells the original scheduled.
    ``workers=None`` reuses the journalled worker count.
    """
    config = read_sweep_config(out)
    return run_sweep(
        config["experiments"],
        out=out,
        scale=config.get("scale", "ci"),
        workers=config.get("workers", 0) if workers is None else workers,
        timeout=timeout,
        retries=retries,
        max_cells=max_cells,
        overrides=config.get("overrides") or {},
        # Older journals predate these knobs (and may still name a
        # replication backend, which is ignored); default to shipping
        # events (matching run_sweep) and never auto-profiling.
        events=bool(config.get("events", True)),
        profile=bool(config.get("profile", False)),
    )


def sweep_status(out: str | Path) -> dict[str, Any]:
    """Journal + store digest of a sweep directory."""
    out_dir = Path(out)
    data = read_journal(out_dir / "journal.jsonl")
    store = ResultStore(out_dir / "store")
    per_experiment: dict[str, dict[str, int]] = {}
    totals = {"scheduled": 0, "started": 0, "finished": 0, "failed": 0}
    for record in data["cells"].values():
        eid = record.get("experiment_id") or "?"
        counts = per_experiment.setdefault(
            eid, {"scheduled": 0, "started": 0, "finished": 0, "failed": 0}
        )
        state = record["type"]
        counts[state] += 1
        totals[state] += 1
    pending = totals["scheduled"] + totals["started"]
    return {
        "out": str(out_dir),
        "config": data["meta"].get("sweep", {}),
        "experiments": per_experiment,
        "totals": totals,
        "pending": pending,
        "complete": pending == 0 and totals["failed"] == 0,
        "store_cells": len(store.keys()),
        "bad_lines": data["bad_lines"],
        "telemetry": _fold_telemetry(store),
    }


def _fold_telemetry(store: ResultStore) -> dict[str, Any]:
    """Aggregate the per-cell ``telemetry`` blocks of a sweep's store.

    Payloads from sweeps that predate the telemetry block simply don't
    contribute (``cells_with_telemetry`` says how many did).  ``slowest``
    is the top-5 cells by wall seconds — the first place to look when a
    sweep's tail drags; ``engines`` tallies cells per replication engine.
    """
    cells_with = 0
    engines: Counter[str] = Counter()
    cpu_user = cpu_sys = wall = 0.0
    cache_hits = cache_misses = rounds = 0
    slowest: list[dict[str, Any]] = []
    for key in store.keys():
        payload = store.get(key)
        if payload is None:
            continue
        telemetry = payload.get("telemetry")
        if not isinstance(telemetry, dict):
            continue
        cells_with += 1
        wall += float(telemetry.get("wall_s") or 0.0)
        cpu_user += float(telemetry.get("cpu_user_s") or 0.0)
        cpu_sys += float(telemetry.get("cpu_sys_s") or 0.0)
        cache_hits += int(telemetry.get("cache_hits") or 0)
        cache_misses += int(telemetry.get("cache_misses") or 0)
        rounds += int(telemetry.get("rounds") or 0)
        if telemetry.get("engine"):
            engines[telemetry["engine"]] += 1
        slowest.append(
            {
                "key": key,
                "experiment_id": payload.get("cell", {}).get("experiment_id", "?"),
                "label": payload.get("cell", {}).get("spec", {}).get("label", "?"),
                "wall_s": float(telemetry.get("wall_s") or 0.0),
            }
        )
    slowest.sort(key=lambda c: -c["wall_s"])
    return {
        "cells_with_telemetry": cells_with,
        "wall_s": wall,
        "cpu_user_s": cpu_user,
        "cpu_sys_s": cpu_sys,
        "cache_hits": cache_hits,
        "cache_misses": cache_misses,
        "rounds": rounds,
        "engines": dict(sorted(engines.items())),
        "slowest": slowest[:5],
    }


def render_status(status: dict[str, Any]) -> str:
    """ASCII table of a sweep's per-experiment progress."""
    from ..analysis.tables import render_table

    rows = [
        [eid, c["finished"], c["failed"], c["scheduled"] + c["started"]]
        for eid, c in sorted(status["experiments"].items())
    ]
    totals = status["totals"]
    rows.append(
        ["TOTAL", totals["finished"], totals["failed"], status["pending"]]
    )
    config = status.get("config", {})
    title = (
        f"sweep status — {status['out']} "
        f"(scale={config.get('scale', '?')}, "
        f"{'complete' if status['complete'] else 'incomplete'})"
    )
    table = render_table(["experiment", "finished", "failed", "pending"], rows, title=title)
    notes = [f"store: {status['store_cells']} cell payload(s)"]
    if status["bad_lines"]:
        notes.append(f"journal: {status['bad_lines']} torn or non-record line(s) skipped")
    tele = status.get("telemetry") or {}
    if tele.get("cells_with_telemetry"):
        notes.append(
            f"telemetry: {tele['cells_with_telemetry']} cell(s), "
            f"{tele['cpu_user_s'] + tele['cpu_sys_s']:.1f}s CPU "
            f"({tele['cpu_user_s']:.1f} user + {tele['cpu_sys_s']:.1f} sys), "
            f"{tele['rounds']} rounds, "
            f"state cache {tele['cache_hits']}/{tele['cache_hits'] + tele['cache_misses']} hits"
        )
        if tele.get("engines"):
            notes.append(
                "engines: " + ", ".join(f"{n} {e}" for e, n in tele["engines"].items())
            )
        for cell in tele.get("slowest", []):
            notes.append(
                f"  slow: {cell['wall_s']:8.3f}s  {cell['experiment_id']:<6} "
                f"{cell['label']}  [{cell['key'][:12]}]"
            )
    return table + "\n" + "\n".join(f"  {n}" for n in notes)
