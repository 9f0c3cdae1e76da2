"""Content-addressed result store for experiment cells.

A *cell* is the atom of the experiment suite: one fully-resolved
:class:`~repro.sim.parallel.RunSpec` replicated ``n_reps`` times from a
``base_seed`` (plus an optional common-random-numbers ``seed_key``).  Its
results are a pure function of that description — the engine is
deterministic given the derived seeds — so results can be cached under a
stable hash of the description and served on any later sweep, resume, or
table render that asks for the same cell.

Key material is the canonical JSON of :meth:`CellSpec.describe` (the same
``sort_keys`` canonicalization :func:`~repro.sim.parallel.spec_seed_key`
uses for seed derivation) salted with the package version, hashed with
BLAKE2b.  Anything that changes the numbers — generator kwargs, protocol
kwargs, schedule, ``max_rounds``, ``label`` (labels feed seed derivation),
``n_reps``, ``base_seed``, ``seed_key``, the package version — changes
the key; anything that does not (``experiment_id``, worker counts, wall
clocks) stays out of it.

Stored payloads are the frozen ``runs-cell/v1`` schema: one
``store/<key>.json`` per cell carrying the cell description, the
round-level :class:`~repro.sim.engine.RunResult` summaries (trajectories
and final states are not persisted — replicated sweeps never carry them),
the execution duration, and a provenance stamp.  :meth:`ResultStore.gc`
drops payloads from other package versions (and corrupt files).

:func:`use_store` installs a store for :func:`repro.experiments.cell` to
consult, so re-rendering an experiment after a sweep is pure cache hits.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from ..obs.hub import _jsonable
from ..obs.provenance import provenance_stamp
from ..sim.engine import RunResult
from ..sim.parallel import RunSpec, replicate

__all__ = [
    "CELL_SCHEMA",
    "RESULT_FIELDS",
    "TELEMETRY_FIELDS",
    "CellSpec",
    "cell_key",
    "build_payload",
    "results_from_payload",
    "MissingCellError",
    "ResultStore",
    "use_store",
    "active_store",
    "render_only_active",
]

#: Stored-cell schema identifier (frozen; see tests/test_runs.py).
CELL_SCHEMA = "runs-cell/v1"

#: RunResult fields persisted per replication (frozen with the schema).
RESULT_FIELDS = (
    "status",
    "rounds",
    "total_moves",
    "total_attempts",
    "total_messages",
    "n_satisfied",
    "n_users",
    "n_resources",
    "satisfying_round",
    "last_event_round",
    "protocol",
    "schedule",
    "seed",
)

class MissingCellError(KeyError):
    """A render-only store was asked for a cell it does not hold.

    Raised by :func:`repro.experiments.cell` inside
    ``use_store(..., render_only=True)`` instead of silently recomputing —
    the whole point of render-only mode is to prove a figure comes from
    stored sweep results.  The message names the cell and its key so the
    missing sweep coverage is actionable.
    """


#: Keys of the optional per-cell resource profile (frozen with the
#: schema).  The block is *additive* to ``runs-cell/v1``: payloads from
#: older sweeps simply lack it, readers must treat it as optional, and it
#: never feeds the cache key (wall clocks and rusage are provenance, not
#: results).  ``peak_traced_bytes``, ``events_file`` and ``profile_file``
#: are ``None`` unless the corresponding opt-in was active; ``engine`` is
#: the replication engine that ran the cell and ``fallback`` why it was
#: scalar (``None`` when a batched kernel ran).
TELEMETRY_FIELDS = (
    "wall_s",
    "cpu_user_s",
    "cpu_sys_s",
    "max_rss_bytes",
    "cache_hits",
    "cache_misses",
    "rounds",
    "peak_traced_bytes",
    "events_file",
    "profile_file",
    "engine",
    "fallback",
)


@dataclass(frozen=True)
class CellSpec:
    """Plain-data description of one cacheable experiment cell.

    ``experiment_id`` is provenance only — two experiments sharing a cell
    (same spec, reps, seeds) share its cache entry.
    """

    spec: RunSpec
    n_reps: int
    base_seed: int = 0
    seed_key: str | None = None
    experiment_id: str = ""

    def describe(self) -> dict[str, Any]:
        """Key material: everything that determines the results."""
        return {
            "spec": self.spec.describe(),
            "n_reps": int(self.n_reps),
            "base_seed": int(self.base_seed),
            "seed_key": self.seed_key,
        }

    def run(self) -> list[RunResult]:
        """Execute the cell in one process (the scheduler's in-worker path)."""
        return replicate(
            self.spec,
            self.n_reps,
            base_seed=self.base_seed,
            workers=0,
            seed_key=self.seed_key,
        )


def cell_key(cell: CellSpec) -> str:
    """Stable content hash of a cell's fully-resolved description."""
    from .. import __version__

    material = json.dumps(
        {"schema": CELL_SCHEMA, "package_version": __version__, **cell.describe()},
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(material.encode(), digest_size=16).hexdigest()


def _result_to_dict(result: RunResult) -> dict[str, Any]:
    return {name: getattr(result, name) for name in RESULT_FIELDS}


def _result_from_dict(data: dict[str, Any]) -> RunResult:
    return RunResult(**{name: data[name] for name in RESULT_FIELDS})


def build_payload(
    cell: CellSpec,
    results: list[RunResult],
    *,
    duration_s: float,
    telemetry: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Assemble the ``runs-cell/v1`` payload for one executed cell.

    ``telemetry`` is the optional per-cell resource profile (see
    :data:`TELEMETRY_FIELDS`); when given it is stored alongside the
    results but, like provenance, never participates in the cache key.
    """
    key = cell_key(cell)
    payload = {
        "schema": CELL_SCHEMA,
        "key": key,
        "cell": {**cell.describe(), "experiment_id": cell.experiment_id},
        "results": [_result_to_dict(r) for r in results],
        "duration_s": float(duration_s),
        "provenance": provenance_stamp(cell_key=key),
    }
    if telemetry is not None:
        payload["telemetry"] = dict(telemetry)
    return payload


def results_from_payload(payload: dict[str, Any]) -> list[RunResult]:
    """Reconstruct the round-level results of a stored cell."""
    return [_result_from_dict(d) for d in payload["results"]]


class ResultStore:
    """One directory of ``<key>.json`` payloads, content-addressed."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    def has(self, key: str) -> bool:
        if self.path(key).exists():
            self._touch(key)
            return True
        return False

    def _touch(self, key: str) -> None:
        """Refresh a payload's mtime — :meth:`prune` evicts by recency,
        so any consult (cache probe or load) counts as a use."""
        try:
            os.utime(self.path(key))
        except OSError:
            pass

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.root.glob("*.json"))

    def get(self, key: str) -> dict[str, Any] | None:
        """Load one payload; a missing or corrupt file is a cache miss."""
        path = self.path(key)
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None
        if payload.get("schema") != CELL_SCHEMA or payload.get("key") != key:
            return None
        return payload

    def put(self, payload: dict[str, Any]) -> Path:
        """Atomically write one payload (tmp file + rename)."""
        if payload.get("schema") != CELL_SCHEMA:
            raise ValueError(f"expected schema {CELL_SCHEMA}, got {payload.get('schema')!r}")
        path = self.path(payload["key"])
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path

    def duration(self, key: str) -> float | None:
        """Prior execution time of a cell, for scheduling order."""
        payload = self.get(key)
        return None if payload is None else float(payload.get("duration_s", 0.0))

    # -- the cell-level API the experiment layer consumes ----------------------

    def load_results(self, cell: CellSpec) -> list[RunResult] | None:
        key = cell_key(cell)
        payload = self.get(key)
        if payload is None:
            return None
        self._touch(key)
        return results_from_payload(payload)

    def store_results(
        self, cell: CellSpec, results: list[RunResult], *, duration_s: float
    ) -> dict[str, Any]:
        payload = build_payload(cell, results, duration_s=duration_s)
        self.put(payload)
        return payload

    # -- invalidation ----------------------------------------------------------

    def gc(self, *, all_versions: bool = False, dry_run: bool = False) -> dict[str, Any]:
        """Remove stale payloads: wrong schema, corrupt, or (unless
        ``all_versions``) written by a different package version.

        With ``all_versions=True`` every payload goes — a full cache wipe.
        Returns counts, freed bytes, and the removed keys.
        """
        from .. import __version__

        kept = 0
        removed: list[str] = []
        freed = 0
        for path in sorted(self.root.glob("*.json")):
            payload = self.get(path.stem)
            stale = payload is None or all_versions or (
                payload.get("provenance", {}).get("package_version") != __version__
            )
            if not stale:
                kept += 1
                continue
            removed.append(path.stem)
            freed += path.stat().st_size
            if not dry_run:
                path.unlink()
        return {
            "kept": kept,
            "removed": len(removed),
            "freed_bytes": freed,
            "removed_keys": removed,
            "dry_run": dry_run,
        }

    def prune(
        self,
        *,
        max_age_s: float | None = None,
        max_bytes: int | None = None,
        dry_run: bool = False,
        now: float | None = None,
    ) -> dict[str, Any]:
        """Evict least-recently-used payloads by age and/or size budget.

        Recency is payload mtime, which :meth:`has`/:meth:`load_results`
        refresh on every consult — a cell served to a sweep or render is
        "used" even though the file is never rewritten.  ``max_age_s``
        drops anything idle longer than that; ``max_bytes`` then keeps
        evicting the coldest payloads until the store fits the budget.
        Journal-safe by construction: a pruned cell is simply a cache
        miss, so a later ``sweep --resume`` re-executes it and commits a
        fresh (bit-identical) payload under the same key.

        Returns the same accounting shape as :meth:`gc`, plus the
        surviving byte total.
        """
        now = time.time() if now is None else now
        entries = []
        total = 0
        for path in sorted(self.root.glob("*.json")):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, path, stat.st_size))
            total += stat.st_size
        entries.sort()  # coldest first
        removed: list[str] = []
        freed = 0
        kept_bytes = total
        for mtime, path, size in entries:
            too_old = max_age_s is not None and now - mtime > max_age_s
            too_big = max_bytes is not None and kept_bytes > max_bytes
            if not too_old and not too_big:
                break  # entries are coldest-first: the rest survive too
            removed.append(path.stem)
            freed += size
            kept_bytes -= size
            if not dry_run:
                try:
                    path.unlink()
                except OSError:
                    pass
        return {
            "kept": len(entries) - len(removed),
            "removed": len(removed),
            "freed_bytes": freed,
            "removed_keys": removed,
            "total_bytes": total,
            "kept_bytes": kept_bytes,
            "dry_run": dry_run,
        }


# -- active store (consulted by repro.experiments.cell) ------------------------

_ACTIVE: list[tuple[ResultStore, bool]] = []


def active_store() -> ResultStore | None:
    """The innermost store installed by :func:`use_store`, if any."""
    return _ACTIVE[-1][0] if _ACTIVE else None


def render_only_active() -> bool:
    """True when the innermost :func:`use_store` forbids recomputation."""
    return _ACTIVE[-1][1] if _ACTIVE else False


@contextmanager
def use_store(
    store: ResultStore | str | Path, *, render_only: bool = False
) -> Iterator[ResultStore]:
    """Route every ``experiments.cell`` call through ``store``.

    Cache hits return stored results without simulating; misses run and
    are written back — so any experiment render inside the context is
    incremental over all prior sweeps sharing the store.  With
    ``render_only=True`` a miss raises :class:`MissingCellError` instead
    of recomputing: figures rendered in that mode provably come from
    stored sweep results alone.
    """
    if not isinstance(store, ResultStore):
        store = ResultStore(store)
    _ACTIVE.append((store, bool(render_only)))
    try:
        yield store
    finally:
        _ACTIVE.pop()
