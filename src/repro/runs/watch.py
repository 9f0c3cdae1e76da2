"""Live sweep dashboard: ``repro-qoslb runs watch <sweep_dir>``.

The journal says which cells exist and how far the scheduler got; the
per-cell event files under ``events/`` say what the workers are doing
*right now* (heartbeat age, round progress).  :func:`sweep_snapshot`
joins the two into one point-in-time picture and :func:`render_watch`
draws it — a completion bar, throughput and ETA, per-state counts, and
a liveness row per running cell.  Both read the same torn-line-tolerant
parsers the post-mortem tools use, so watching a sweep that is being
SIGKILLed mid-write never crashes the dashboard.

:func:`watch` is the terminal loop: redraw every ``interval`` seconds
until the sweep completes (or forever with ``follow=True``); a single
``once=True`` render is the scripting/CI entry point.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from ..obs.aggregate import cell_digest, cell_event_files
from .journal import read_journal

__all__ = [
    "STALE_HEARTBEAT_S",
    "sweep_snapshot",
    "render_watch",
    "watch",
    "workers_roster",
    "render_workers",
]

# Distributed sweeps additionally leave a live worker table
# (workers.json, maintained by the repro.runs.net coordinator); the
# dashboard joins it in as per-worker rows when present.

#: A running cell whose last event is older than this is flagged — its
#: worker is either inside a very long round or gone.
STALE_HEARTBEAT_S = 30.0


def _worker_rows(worker_table: dict[str, Any], now: float) -> list[dict[str, Any]]:
    """Normalize a ``runs-workers/v1`` table into dashboard/roster rows."""
    rows: list[dict[str, Any]] = []
    lease_by_worker = {
        lease.get("worker"): lease for lease in worker_table.get("leases", [])
    }
    for info in worker_table.get("workers", []):
        lease = lease_by_worker.get(info.get("id"))
        last_seen = info.get("last_seen")
        rows.append(
            {
                "id": info.get("id", "?"),
                "host": info.get("host", "?"),
                "pid": info.get("pid"),
                "alive": bool(info.get("alive")),
                "cells_done": int(info.get("cells_done") or 0),
                "leased": info.get("leased"),
                "leased_label": lease.get("label") if lease else None,
                "heartbeat_age": (
                    max(0.0, now - last_seen)
                    if isinstance(last_seen, (int, float))
                    else None
                ),
                "lease_expired": bool(
                    lease
                    and isinstance(lease.get("deadline"), (int, float))
                    and lease["deadline"] < now
                ),
            }
        )
    return rows


def workers_roster(
    out: str | Path, *, now: float | None = None
) -> list[dict[str, Any]] | None:
    """Point-in-time roster of a distributed sweep's workers.

    Reads the coordinator's ``workers.json`` alone (no journal needed, so
    it works on a sweep dir that is mid-serve or being inspected post
    mortem) and returns the same rows the ``runs watch`` dashboard shows:
    id, host, pid, liveness, cells done, leased cell + label, heartbeat
    age, expired-lease flag.  ``None`` when there is no (readable) worker
    table — the sweep is not distributed, or the coordinator has not
    started.
    """
    from .net import read_workers

    now = time.time() if now is None else now
    table = read_workers(Path(out))
    if table is None:
        return None
    return _worker_rows(table, now)


def sweep_snapshot(out: str | Path, *, now: float | None = None) -> dict[str, Any]:
    """One point-in-time join of a sweep's journal and event files.

    Never raises on in-flight artifacts: torn journal/event lines are
    skipped by the underlying readers, and a cell without an event file
    simply has no liveness data.  (A missing journal *does* raise — there
    is no sweep to watch.)
    """
    from .net import read_workers

    out_dir = Path(out)
    now = time.time() if now is None else now
    data = read_journal(out_dir / "journal.jsonl")
    digests: dict[str, dict[str, Any]] = {}
    for path in cell_event_files(out_dir / "events"):
        digest = cell_digest(path)
        digests[digest["cell"]] = digest

    # Distributed sweeps: join the coordinator's live worker table.
    worker_rows: list[dict[str, Any]] = []
    worker_table = read_workers(out_dir)
    if worker_table is not None:
        worker_rows = _worker_rows(worker_table, now)

    cells: list[dict[str, Any]] = []
    counts = {"finished": 0, "failed": 0, "running": 0, "pending": 0}
    durations: list[float] = []
    first_t: float | None = None
    last_t: float | None = None
    for key, record in sorted(data["cells"].items()):
        t = record.get("t")
        if isinstance(t, (int, float)):
            first_t = t if first_t is None else min(first_t, t)
            last_t = t if last_t is None else max(last_t, t)
        journal_state = record.get("type", "scheduled")
        state = {
            "finished": "finished",
            "failed": "failed",
            "started": "running",
            "scheduled": "pending",
        }.get(journal_state, "pending")
        counts[state] += 1
        if state == "finished" and not record.get("cached"):
            seconds = record.get("seconds")
            if isinstance(seconds, (int, float)):
                durations.append(float(seconds))
        entry: dict[str, Any] = {
            "key": key,
            "experiment_id": record.get("experiment_id", "?"),
            "label": record.get("label", "?"),
            "state": state,
            "cached": bool(record.get("cached")),
            "seconds": record.get("seconds"),
            "error": record.get("error"),
            "heartbeat_age": None,
            "progress": None,
            "rounds": None,
        }
        digest = digests.get(key)
        if digest is not None:
            if digest["last_t"] is not None:
                entry["heartbeat_age"] = max(0.0, now - digest["last_t"])
            progress = digest["last_progress"]
            if progress is not None:
                entry["rounds"] = progress.get("round")
                max_rounds = progress.get("max_rounds")
                if isinstance(max_rounds, (int, float)) and max_rounds > 0:
                    entry["progress"] = min(1.0, float(progress.get("round", 0)) / max_rounds)
        cells.append(entry)

    total = len(cells)
    done = counts["finished"] + counts["failed"]
    remaining = counts["running"] + counts["pending"]
    elapsed = max(0.0, now - first_t) if first_t is not None else 0.0
    executed = len(durations)
    throughput = executed / elapsed if elapsed > 0 else None
    config = data["meta"].get("sweep", {})
    # A served sweep journals ``workers: 0``; its parallelism is the
    # coordinator's live worker table.
    if worker_table is not None:
        workers = max(1, sum(1 for w in worker_rows if w["alive"]))
    else:
        workers = max(1, int(config.get("workers") or 0))
    mean_s = sum(durations) / executed if executed else None
    eta_s = remaining * mean_s / workers if (remaining and mean_s is not None) else None

    return {
        "out": str(out_dir),
        "now": now,
        "config": config,
        "workers": worker_rows,
        "cells": cells,
        "counts": counts,
        "total": total,
        "done": done,
        "remaining": remaining,
        "complete": remaining == 0,
        "elapsed_s": elapsed,
        "executed": executed,
        "throughput_cells_per_s": throughput,
        "eta_s": eta_s,
        "bad_lines": data["bad_lines"],
    }


def _fmt_age(seconds: float | None) -> str:
    if seconds is None:
        return "    -"
    if seconds < 60:
        return f"{seconds:4.1f}s"
    return f"{seconds / 60:4.1f}m"


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "-"
    if seconds < 90:
        return f"{seconds:.0f}s"
    if seconds < 90 * 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def _worker_lines(workers: list[dict[str, Any]], max_rows: int) -> list[str]:
    """Per-worker roster lines shared by the dashboard and ``runs workers``."""
    lines = []
    for w in workers[:max_rows]:
        age = w["heartbeat_age"]
        stale = w["lease_expired"] or (
            w["alive"] and age is not None and age > STALE_HEARTBEAT_S
        )
        leased = (
            f"{w['leased'][:12]} {w['leased_label'] or ''}".rstrip()
            if w["leased"]
            else ("idle" if w["alive"] else "gone")
        )
        flag = "!" if stale else (" " if w["alive"] else "x")
        lines.append(
            f"    {_fmt_age(age)}{flag} {w['id']:<4} {w['host']:<16} "
            f"done {w['cells_done']:>3}  {leased}"
            + ("  [lease expired]" if w["lease_expired"] else "")
        )
    if len(workers) > max_rows:
        lines.append(f"    … and {len(workers) - max_rows} more")
    return lines


def render_workers(
    workers: list[dict[str, Any]], *, max_rows: int = 50
) -> str:
    """Draw a :func:`workers_roster` as a plain-text table."""
    alive = sum(1 for w in workers if w["alive"])
    expired = sum(1 for w in workers if w["lease_expired"])
    lines = [
        f"workers — {alive}/{len(workers)} alive"
        + (f"  ·  {expired} expired lease(s)" if expired else ""),
        "  (heartbeat age · id · host · cells done · leased cell)",
    ]
    lines.extend(_worker_lines(workers, max_rows))
    return "\n".join(lines)


def render_watch(snapshot: dict[str, Any], *, max_rows: int = 12) -> str:
    """Draw one snapshot as a terminal dashboard (plain string)."""
    from ..viz.ascii import progress_bar

    counts = snapshot["counts"]
    total = snapshot["total"]
    frac = snapshot["done"] / total if total else float("nan")
    state = "complete" if snapshot["complete"] else "running"
    lines = [
        f"sweep watch — {snapshot['out']} ({state})",
        f"  {progress_bar(frac)} {snapshot['done']}/{total} cells"
        f"  ·  {counts['running']} running, {counts['pending']} pending, "
        f"{counts['failed']} failed",
        f"  elapsed {_fmt_eta(snapshot['elapsed_s'])}"
        f"  ·  {snapshot['executed']} executed"
        + (
            f"  ·  {60.0 * snapshot['throughput_cells_per_s']:.1f} cells/min"
            if snapshot["throughput_cells_per_s"]
            else ""
        )
        + (f"  ·  ETA {_fmt_eta(snapshot['eta_s'])}" if snapshot["eta_s"] is not None else ""),
    ]
    if snapshot["bad_lines"]:
        lines.append(f"  journal: {snapshot['bad_lines']} torn or non-record line(s) skipped")

    workers = snapshot.get("workers") or []
    if workers:
        lines.append("")
        lines.append("  workers (heartbeat age · leased cell):")
        lines.extend(_worker_lines(workers, max_rows))

    running = [c for c in snapshot["cells"] if c["state"] == "running"]
    if running:
        lines.append("")
        lines.append("  running cells (heartbeat age · progress):")
        for cell in running[:max_rows]:
            age = cell["heartbeat_age"]
            stale = age is not None and age > STALE_HEARTBEAT_S
            bar = progress_bar(
                cell["progress"] if cell["progress"] is not None else float("nan"),
                width=16,
            )
            lines.append(
                f"    {_fmt_age(age)}{'!' if stale else ' '} {bar} "
                f"{cell['experiment_id']:<6} {cell['label']}  [{cell['key'][:12]}]"
            )
        if len(running) > max_rows:
            lines.append(f"    … and {len(running) - max_rows} more")

    failed = [c for c in snapshot["cells"] if c["state"] == "failed"]
    if failed:
        lines.append("")
        lines.append("  failed cells:")
        for cell in failed[:max_rows]:
            lines.append(
                f"    {cell['experiment_id']:<6} {cell['label']}  [{cell['key'][:12]}]"
                f"  {cell['error'] or ''}"
            )

    finished = [
        c
        for c in snapshot["cells"]
        if c["state"] == "finished" and not c["cached"] and c["seconds"] is not None
    ]
    if finished:
        finished.sort(key=lambda c: -float(c["seconds"]))
        lines.append("")
        lines.append("  slowest finished cells:")
        for cell in finished[:5]:
            lines.append(
                f"    {float(cell['seconds']):8.3f}s  {cell['experiment_id']:<6} "
                f"{cell['label']}  [{cell['key'][:12]}]"
            )
    return "\n".join(lines)


def watch(
    out: str | Path,
    *,
    interval: float = 2.0,
    once: bool = False,
    follow: bool = False,
    max_rows: int = 12,
    _print=print,
) -> int:
    """Redraw the dashboard until the sweep completes.

    ``once`` renders a single frame (no clearing) and returns — the mode
    CI and tests use.  ``follow`` keeps watching even after completion
    (e.g. waiting for a resume to start).  Returns 1 when the final
    snapshot contains failed cells, 0 otherwise.
    """
    while True:
        snapshot = sweep_snapshot(out)
        frame = render_watch(snapshot, max_rows=max_rows)
        if once:
            _print(frame)
        else:
            # ANSI clear + home keeps the dashboard in place without
            # pulling in curses (CI logs just concatenate frames).
            _print("\033[2J\033[H" + frame, flush=True)
        if once or (snapshot["complete"] and not follow):
            return 1 if snapshot["counts"]["failed"] else 0
        time.sleep(interval)
