"""Append-only sweep journal (``runs-journal/v1``).

Every sweep writes one JSONL journal next to its store.  The first line
is a ``meta`` header pinning the schema, the sweep configuration (the
experiment ids, scale and overrides needed to re-enumerate the same
cells) and a provenance stamp; each later line records one cell state
transition:

- ``scheduled`` — the cell is part of this sweep;
- ``started``   — handed to the executor (re-appended per retry attempt);
- ``finished``  — results are in the store (``cached: true`` when served
  from a previous sweep without executing);
- ``failed``    — retries exhausted; the sweep completed without it.

Re-opening an existing journal appends a ``resume`` line and continues —
nothing is ever rewritten, so a SIGKILL mid-write costs at most the last
line.  :func:`read_journal` therefore reads through the same torn-line
tolerant reader ``trace-report`` uses for ``obs-events/v1`` files
(:func:`~repro.obs.aggregate.read_events`: unparseable and non-object
lines are skipped and counted), and folds the records into a per-cell
state map with precedence ``finished > failed > started > scheduled``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, TextIO

from ..obs.aggregate import read_events
from ..obs.hub import _jsonable
from ..obs.provenance import provenance_stamp

__all__ = ["JOURNAL_SCHEMA", "Journal", "read_journal", "cell_states"]

#: Journal schema identifier (frozen; see tests/test_runs.py).
JOURNAL_SCHEMA = "runs-journal/v1"

#: Cell-record precedence when folding a journal into per-cell states.
_PRECEDENCE = {"scheduled": 0, "started": 1, "failed": 2, "finished": 3}


class Journal:
    """Append-only JSONL writer; flushes every record."""

    def __init__(self, path: str | Path, *, sweep: dict[str, Any] | None = None):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fresh = not self.path.exists() or self.path.stat().st_size == 0
        self._fh: TextIO | None = self.path.open("a")
        if fresh:
            self.append(
                "meta",
                schema=JOURNAL_SCHEMA,
                sweep=sweep or {},
                provenance=provenance_stamp(),
            )
        elif sweep is not None:
            self.append("resume", sweep=sweep)

    def append(self, record_type: str, **fields: Any) -> None:
        if self._fh is None:
            raise RuntimeError("journal is closed")
        record = {"type": record_type, "t": time.time(), **fields}
        self._fh.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
        self._fh.flush()

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        self.close()
        return False


def cell_states(records: list[dict[str, Any]]) -> dict[str, dict[str, Any]]:
    """Fold records into ``key -> highest-precedence record``.

    ``finished`` beats everything (a later ``scheduled`` from a resumed
    sweep never demotes a done cell); among equals the later record wins
    (so the last retry's ``failed`` carries the final error).
    """
    states: dict[str, dict[str, Any]] = {}
    for record in records:
        key = record.get("key")
        rank = _PRECEDENCE.get(record.get("type", ""))
        if key is None or rank is None:
            continue
        current = states.get(key)
        if current is None or rank >= _PRECEDENCE[current["type"]]:
            states[key] = record
    return states


def read_journal(path: str | Path) -> dict[str, Any]:
    """Parse a journal, tolerating torn and non-object lines.

    Returns ``{"meta", "records", "cells", "bad_lines"}``; raises when the
    file is missing or carries no valid ``runs-journal/v1`` header.
    """
    meta: dict[str, Any] | None = None
    records: list[dict[str, Any]] = []
    # A torn line is an interrupted write: the record is lost, not the journal.
    parsed, bad_lines = read_events(path)
    for record in parsed:
        if record.get("type") == "meta" and meta is None:
            if record.get("schema") != JOURNAL_SCHEMA:
                raise ValueError(
                    f"{path}: expected schema {JOURNAL_SCHEMA}, got {record.get('schema')!r}"
                )
            meta = record
        else:
            records.append(record)
    if meta is None:
        raise ValueError(f"{path}: missing {JOURNAL_SCHEMA} meta header")
    return {
        "meta": meta,
        "records": records,
        "cells": cell_states(records),
        "bad_lines": bad_lines,
    }
