"""Sweep-level telemetry aggregation: merge per-cell event files.

A sweep with event shipping enabled leaves one ``obs-events/v1`` JSONL
file per executed cell under ``<sweep_dir>/events/cell-<key>.jsonl``
(written by the worker that ran the cell, see
:func:`repro.runs.scheduler.execute_cell`).  This module is the
coordinator side: it folds those per-cell files into one sweep-wide
``timeline.jsonl`` — same ``obs-events/v1`` framing, every record
annotated with its ``cell`` key and the whole stream sorted by wall
clock — so one file answers "what was the sweep doing at time *t*".

Every reader here is tolerant by construction:

- **torn lines** — a worker killed mid-write leaves a truncated final
  line; it is counted and skipped, never fatal;
- **unreadable files** — a per-cell file that vanished or cannot be
  opened is reported as unreadable, never as a clean empty one;
- **unknown event kinds / extra keys** — ``obs-events/v1`` is additive;
  records are carried through (and digested around) untouched, so a
  timeline written by a newer package version still merges and renders.

:func:`cell_digest` is the shared single-file summary (last heartbeat,
last progress, clean-close marker) that both the merged timeline header
and the live ``runs watch`` dashboard build on.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any

from .hub import OBS_EVENTS_SCHEMA
from .provenance import provenance_stamp

__all__ = [
    "TIMELINE_NAME",
    "read_events",
    "cell_event_files",
    "cell_key_of",
    "cell_digest",
    "merge_events",
    "write_cell_events",
]

#: File name of the merged sweep timeline (sibling of ``events/``).
TIMELINE_NAME = "timeline.jsonl"


def read_events(path: str | Path) -> tuple[list[dict[str, Any]], int]:
    """All parseable records of one event file, plus the torn-line count.

    A live file's final line may be half-written; corrupt or non-object
    lines are skipped and counted, everything else is returned verbatim
    (unknown kinds and keys included — forward compatibility is the
    reader's job, and this reader's job is only framing).  A file that
    cannot be read raises :class:`OSError`.
    """
    records: list[dict[str, Any]] = []
    bad = 0
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            bad += 1
            continue
        if not isinstance(record, dict):
            bad += 1
            continue
        records.append(record)
    return records, bad


def cell_event_files(events_dir: str | Path) -> list[Path]:
    """The per-cell event files of a sweep, in stable (key) order."""
    return sorted(Path(events_dir).glob("cell-*.jsonl"))


def cell_key_of(path: str | Path) -> str:
    """Cell key encoded in a per-cell event file name."""
    stem = Path(path).stem
    return stem[len("cell-"):] if stem.startswith("cell-") else stem


def cell_digest(path: str | Path) -> dict[str, Any]:
    """Liveness summary of one per-cell event file.

    ``closed`` means the hub's final ``counters``/``spans`` summary lines
    are present — the worker disabled the sink cleanly (the cell ran to
    completion or failed through the normal path).  A file without them
    belongs to a cell that is still running or was killed outright;
    ``last_t`` then dates its most recent sign of life.  ``unreadable``
    marks a file that could not be read (it vanished after the glob, or
    cannot be opened): its other fields carry no data.
    """
    try:
        records, bad = read_events(path)
        unreadable = False
    except OSError:
        records, bad, unreadable = [], 0, True
    digest: dict[str, Any] = {
        "cell": cell_key_of(path),
        "records": len(records),
        "bad_lines": bad,
        "first_t": None,
        "last_t": None,
        "last_heartbeat": None,
        "last_progress": None,
        "label": None,
        "closed": False,
        "unreadable": unreadable,
    }
    for record in records:
        t = record.get("t")
        if isinstance(t, (int, float)):
            if digest["first_t"] is None or t < digest["first_t"]:
                digest["first_t"] = t
            if digest["last_t"] is None or t > digest["last_t"]:
                digest["last_t"] = t
        kind = record.get("type")
        if kind == "meta":
            meta = record.get("meta")
            if isinstance(meta, dict):
                digest["label"] = meta.get("label")
        elif kind == "cell.heartbeat":
            digest["last_heartbeat"] = record
        elif kind == "cell.progress":
            digest["last_progress"] = record
        elif kind in ("counters", "spans"):
            digest["closed"] = True
    return digest


def write_cell_events(events_dir: str | Path, key: str, text: str) -> Path:
    """Land a remotely-executed cell's event file in the sweep's events dir.

    Distributed workers ship their per-cell ``obs-events/v1`` file as text
    inside the ``result`` frame (they may not share a filesystem with the
    coordinator); the coordinator writes it here — atomically, with the
    trailing newline restored if the shipment lost it — under exactly the
    name :func:`merge_events` expects, so remote and local cells are
    indistinguishable in the merged timeline.
    """
    events_dir = Path(events_dir)
    events_dir.mkdir(parents=True, exist_ok=True)
    path = events_dir / f"cell-{key}.jsonl"
    if text and not text.endswith("\n"):
        text += "\n"
    tmp = path.with_suffix(".jsonl.tmp")
    tmp.write_text(text)
    os.replace(tmp, path)
    return path


def merge_events(
    events_dir: str | Path, out: str | Path | None = None
) -> dict[str, Any]:
    """Fold every per-cell event file into one sweep timeline.

    Writes ``<events_dir>/../timeline.jsonl`` (or ``out``) atomically:
    a fresh ``obs-events/v1`` meta header naming the merged cells, then
    every per-cell record annotated with ``"cell": <key>`` and sorted by
    wall clock (ties broken by cell key, so the merge is deterministic
    for fixed inputs).  Per-cell meta/counters/spans records are carried
    along — they hold each cell's provenance and final aggregates.

    Safe to run mid-sweep: live files merge up to their last whole line.
    Returns a summary dict (never raises on torn or unreadable files; the
    latter are skipped and counted in ``unreadable``).
    """
    events_dir = Path(events_dir)
    out_path = Path(out) if out is not None else events_dir.parent / TIMELINE_NAME
    # Records are held as their output lines, not parsed dicts: a sweep's
    # timeline holds every per-replication record, and the dicts would
    # cost several times the memory of the text.
    merged: list[tuple[float, str, str]] = []
    bad_lines = 0
    unreadable = 0
    cells: list[str] = []
    for path in cell_event_files(events_dir):
        key = cell_key_of(path)
        try:
            records, bad = read_events(path)
        except OSError:
            unreadable += 1
            continue
        bad_lines += bad
        if records:
            cells.append(key)
        for record in records:
            record["cell"] = key
            t = record.get("t")
            line = json.dumps(record, sort_keys=True)
            merged.append((t if isinstance(t, (int, float)) else 0.0, key, line))
    merged.sort(key=lambda item: (item[0], item[1]))

    header = {
        "type": "meta",
        "t": time.time(),
        "schema": OBS_EVENTS_SCHEMA,
        "provenance": provenance_stamp(),
        "meta": {
            "timeline": True,
            "events_dir": str(events_dir),
            "cells": cells,
            "records": len(merged),
            "bad_lines": bad_lines,
            "unreadable": unreadable,
        },
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = out_path.with_suffix(out_path.suffix + ".tmp")
    with tmp.open("w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for _, _, line in merged:
            fh.write(line + "\n")
    os.replace(tmp, out_path)
    return {
        "out": str(out_path),
        "cells": len(cells),
        "records": len(merged),
        "bad_lines": bad_lines,
        "unreadable": unreadable,
    }
