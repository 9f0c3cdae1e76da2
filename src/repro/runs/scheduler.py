"""Cell scheduling: one lease queue, two transports.

:class:`CellQueue` is the sweep's single scheduling state machine; the
local process pool (:func:`run_cells`) and the TCP coordinator
(:mod:`repro.runs.net`) are two transports draining it:

- **cache first** — cells already in the store are journalled
  ``finished (cached)`` without executing (``force=True`` bypasses);
- **longest-expected-first** — pending cells are leased in order of
  prior duration from the store (unknown cells first: they might be the
  longest), so idle workers take the big cells early and the tail of the
  sweep is short;
- **per-cell timeout** — enforced *inside* the worker via ``SIGALRM``
  (pool futures cannot be cancelled once running); on platforms or
  threads without signal support the timeout degrades to unbounded;
- **bounded retry with backoff** — a failed attempt re-queues the cell up
  to ``retries`` more times, each attempt sleeping an exponentially
  growing, capped delay first (the msgsim self-healing agents'
  retransmission idiom); a dead pool worker counts as a released lease,
  just like a network worker's EOF.  Exhausted cells are journalled
  ``failed`` and the sweep *completes* with a non-zero ``failed`` count
  instead of aborting.

Workers execute :func:`execute_cell` — replication stays in the worker's
process (the cell is the fan-out unit).  A fork-started worker never
inherits the parent's enabled hub (the hub disarms itself after fork, see
:mod:`repro.obs.hub`); instead, when the sweep ships events, each worker
enables its *own* per-cell JSONL sink under ``<sweep_dir>/events/`` and
records a resource profile (wall/CPU/rusage/cache counters) into the
``runs-cell/v1`` payload's ``telemetry`` block — the raw material the
coordinator merges into the sweep timeline and ``runs watch`` renders.
"""

from __future__ import annotations

import resource
import signal
import threading
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from ..core.state import CACHE_STATS
from ..obs import HUB as _OBS
from ..sim.parallel import replicate_engine
from .journal import Journal
from .store import CellSpec, ResultStore, build_payload, cell_key

__all__ = [
    "CellQueue",
    "CellTimeout",
    "DEFAULT_TIMEOUT",
    "DEFAULT_RETRIES",
    "WORKER_SAMPLE_RATE",
    "backoff_delay",
    "execute_cell",
    "run_cells",
]

#: Per-cell wall-clock budget (seconds); generous — cells are CI-sized
#: by default and a hung cell should fail long before the sweep does.
DEFAULT_TIMEOUT = 900.0
#: Extra attempts after the first failure.
DEFAULT_RETRIES = 2
#: Backoff: ``min(cap, base * 2**attempt)`` seconds before retry *attempt*.
BACKOFF_BASE = 0.25
BACKOFF_CAP = 8.0
#: Round-event thinning for worker sinks (``HUB.enable(sample_rate=...)``):
#: per-round events are trend data, not liveness — heartbeats/progress are
#: wall-clock throttled separately — so 1-in-16 keeps per-cell files small
#: and the per-event flush off the hot path's back.
WORKER_SAMPLE_RATE = 16


class CellTimeout(RuntimeError):
    """A cell exceeded its per-cell wall-clock budget."""


def backoff_delay(
    attempt: int, *, base: float = BACKOFF_BASE, cap: float = BACKOFF_CAP
) -> float:
    """Capped exponential backoff before retry ``attempt`` (0-based)."""
    return min(cap, base * (2.0**attempt))


@contextmanager
def _deadline(seconds: float | None) -> Iterator[None]:
    """Raise :class:`CellTimeout` after ``seconds`` of wall clock.

    Uses ``SIGALRM``/``setitimer`` — available on the main thread of a
    POSIX process, which is exactly where pool workers run their tasks.
    Elsewhere (Windows, non-main threads) it is a no-op.
    """
    usable = (
        seconds is not None
        and seconds > 0
        and hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _on_alarm(signum: int, frame: object) -> None:
        raise CellTimeout(f"cell exceeded {seconds:g}s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, max(float(seconds), 1e-3))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_cell(
    cell: CellSpec,
    timeout: float | None = None,
    delay: float = 0.0,
    events_dir: str | Path | None = None,
    profile_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Worker entry point: one cell to a ``runs-cell/v1`` payload.

    ``delay`` is the retry backoff, slept in the worker so the parent's
    collection loop never blocks.  No store I/O happens here — the parent
    owns the store, keeping writes single-process and atomic.

    ``events_dir`` enables this process's telemetry hub onto a per-cell
    JSONL sink ``<events_dir>/cell-<key>.jsonl`` for the duration of the
    cell (``obs-events/v1`` plus the engine's ``cell.heartbeat`` /
    ``cell.progress`` liveness records, round events thinned to
    1-in-:data:`WORKER_SAMPLE_RATE`).  If the hub is already active in
    this process — a serial in-process sweep under ``--obs-out`` — the
    caller's sink wins and no per-cell file is written.  ``profile_dir``
    additionally wraps the cell in :mod:`cProfile` (stats to
    ``<profile_dir>/cell-<key>.pstats``) and ``tracemalloc`` (peak into
    the telemetry block).  Every executed cell records a resource
    profile regardless: wall seconds, ``getrusage`` user/sys CPU deltas,
    max RSS, state-cache hit/miss deltas, and the ``engine`` that ran it
    with the ``fallback`` reason when that engine is scalar (see
    :func:`~repro.sim.parallel.replicate_engine`).
    """
    if delay > 0:
        time.sleep(delay)
    key = cell_key(cell)
    events_path: Path | None = None
    if events_dir is not None and not _OBS.active:
        events_path = Path(events_dir) / f"cell-{key}.jsonl"
    profiler = None
    peak_traced: int | None = None
    if profile_dir is not None:
        import cProfile
        import tracemalloc

        profiler = cProfile.Profile()
        tracemalloc.start()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    hits0, misses0 = CACHE_STATS.hits, CACHE_STATS.misses
    started = time.perf_counter()
    if events_path is not None:
        _OBS.enable(
            events_path,
            sample_rate=WORKER_SAMPLE_RATE,
            cell_key=key,
            experiment_id=cell.experiment_id,
            label=cell.spec.label,
            n_reps=cell.n_reps,
        )
    try:
        with _deadline(timeout):
            if profiler is not None:
                profiler.enable()
            try:
                results = cell.run()
            finally:
                if profiler is not None:
                    profiler.disable()
    finally:
        if events_path is not None:
            _OBS.disable()
        if profile_dir is not None:
            import tracemalloc

            peak_traced = int(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
    duration = time.perf_counter() - started
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    profile_path: Path | None = None
    if profiler is not None:
        root = Path(profile_dir)
        root.mkdir(parents=True, exist_ok=True)
        profile_path = root / f"cell-{key}.pstats"
        profiler.dump_stats(profile_path)
    # CellSpec.run replicates in-process, so no pool enters the decision.
    engine, fallback = replicate_engine(cell.spec, cell.n_reps)
    telemetry = {
        "wall_s": duration,
        "cpu_user_s": ru1.ru_utime - ru0.ru_utime,
        "cpu_sys_s": ru1.ru_stime - ru0.ru_stime,
        "max_rss_bytes": int(ru1.ru_maxrss) * 1024,
        "cache_hits": int(CACHE_STATS.hits - hits0),
        "cache_misses": int(CACHE_STATS.misses - misses0),
        "rounds": int(sum(r.rounds for r in results)),
        "peak_traced_bytes": peak_traced,
        "events_file": events_path.name if events_path is not None else None,
        "profile_file": profile_path.name if profile_path is not None else None,
        "engine": engine,
        "fallback": fallback,
    }
    return build_payload(cell, results, duration_s=duration, telemetry=telemetry)


class CellQueue:
    """The lease-queue state machine both sweep transports drive.

    Construction dedupes the cells by key, journals every one
    ``scheduled``, serves store hits as ``finished (cached)`` and queues
    the rest longest-expected-first (cells with no prior duration first:
    they might be the longest); beyond ``max_cells`` they are deferred to
    a later resume.  A transport then loops :meth:`lease` → execute →
    :meth:`commit` / :meth:`fail`.  Every attempt that ends without a
    result — a reported failure, a lease released because its worker is
    gone, a lease expired by :meth:`reap` — consumes one attempt: the
    cell re-queues until ``retries`` are spent, then it is journalled
    ``failed``.

    This is the only writer of ``scheduled``/``started``/``finished``/
    ``failed`` records.  Every method holds :attr:`lock` (re-entrant, so
    a subclass may wrap calls), which keeps the journal single-writer
    across threads.
    """

    def __init__(
        self,
        cells: Iterable[CellSpec],
        *,
        store: ResultStore,
        journal: Journal | None = None,
        retries: int = DEFAULT_RETRIES,
        force: bool = False,
        max_cells: int | None = None,
    ):
        self.lock = threading.RLock()
        self.started = time.perf_counter()
        self.store = store
        self.journal = journal
        self.retries = int(retries)
        self.cells: dict[str, CellSpec] = {}
        for cell in cells:
            self.cells.setdefault(cell_key(cell), cell)
        self.attempts: dict[str, int] = {}  # key -> attempts consumed
        self.leases: dict[str, dict[str, Any]] = {}
        self.done: dict[str, str] = {}  # key -> "cached" | "run"
        self.failed: dict[str, str] = {}  # key -> error
        self.failures: list[dict[str, Any]] = []
        for key, cell in self.cells.items():
            self._journal("scheduled", key, n_reps=cell.n_reps)
        _OBS.count("runs.cells_scheduled", len(self.cells))
        pending = []
        for key in self.cells:
            if not force and store.has(key):
                self.done[key] = "cached"
                self._journal("finished", key, cached=True)
                self._event(key, "cached", "runs.cells_cached", seconds=0.0)
            else:
                pending.append(key)
        pending.sort(key=lambda k: -(store.duration(k) or float("inf")))
        cap = len(pending) if max_cells is None or max_cells < 0 else max_cells
        self.pending: deque[str] = deque(pending[:cap])
        self.deferred = pending[cap:]

    def _journal(self, record_type: str, key: str, **fields: Any) -> None:
        """Append a cell record; fields left ``None`` (a local lease's worker) are omitted."""
        if self.journal is not None:
            cell = self.cells[key]
            self.journal.append(
                record_type, key=key, experiment_id=cell.experiment_id, label=cell.spec.label,
                **{k: v for k, v in fields.items() if v is not None},
            )

    def _event(self, key: str, status: str, counter: str, **fields: Any) -> None:
        if _OBS.active:
            cell = self.cells[key]
            _OBS.count(counter)
            _OBS.event(
                "cell",
                {"key": key, "experiment_id": cell.experiment_id, "label": cell.spec.label,
                 "status": status, **fields},
            )

    def settled(self, key: str) -> bool:
        return key in self.done or key in self.failed

    def lease(self, worker: str | None = None, ttl: float | None = None) -> dict[str, Any] | None:
        """Grant the next pending cell to ``worker``; ``None`` when none waits.

        The lease carries the cell, its 0-based ``attempt`` and the
        backoff ``delay_s`` to sleep before executing it.  With a ``ttl``
        it expires unless extended (:meth:`extend`); without one it never
        does.
        """
        with self.lock:
            while self.pending:
                key = self.pending.popleft()
                if self.settled(key):  # a late commit from an expired lease won
                    continue
                attempt = self.attempts.get(key, 0)
                lease = self.leases[key] = {
                    "key": key,
                    "cell": self.cells[key],
                    "worker": worker,
                    "attempt": attempt,
                    "delay_s": backoff_delay(attempt - 1) if attempt else 0.0,
                    "ttl_s": ttl,
                    "deadline": None if ttl is None else time.time() + ttl,
                }
                self._journal("started", key, attempt=attempt, worker=worker)
                return lease
            return None

    def extend(self, key: str, worker: str | None = None) -> bool:
        """Push ``worker``'s lease on ``key`` one ttl out; False if it is not theirs."""
        with self.lock:
            lease = self.leases.get(key)
            if lease is None or lease["worker"] != worker:
                return False
            if lease["ttl_s"] is not None:
                lease["deadline"] = time.time() + lease["ttl_s"]
            return True

    def commit(self, key: str, payload: Any, worker: str | None = None) -> bool:
        """Store ``payload`` and journal ``finished``, at most once per key.

        Returns False for a settled cell (a duplicate delivery: no store
        or journal write).  A late result from an expired lease still
        counts if nobody beat it.  Raises ``ValueError`` when the payload
        is not this cell's or the store refuses it.
        """
        with self.lock:
            if self.settled(key):
                return False
            if not isinstance(payload, dict) or payload.get("key") != key:
                raise ValueError(f"payload does not match leased cell {key}")
            self.store.put(payload)
            self.leases.pop(key, None)
            self.done[key] = "run"
            seconds = float(payload.get("duration_s") or 0.0)
            self._journal("finished", key, cached=False, seconds=seconds, worker=worker)
            self._event(key, "finished", "runs.cells_run", seconds=seconds)
            return True

    def fail(self, key: str, error: str, worker: str | None = None) -> bool | None:
        """The lease holder reports a failed attempt: True if re-queued,
        False if retries are spent.  A report from anyone but the current
        holder (an expired lease, a resend) changes nothing: ``None``."""
        with self.lock:
            lease = self.leases.get(key)
            if lease is None or lease["worker"] != worker:
                return None
            del self.leases[key]
            return self._consume(key, error)

    def release(self, worker: str | None, error: str) -> list[str]:
        """``worker`` is gone: each of its leases consumes an attempt now."""
        with self.lock:
            keys = [k for k, lease in self.leases.items() if lease["worker"] == worker]
            for key in keys:
                del self.leases[key]
                self._consume(key, error)
            return keys

    def reap(self, now: float | None = None) -> list[dict[str, Any]]:
        """Expire the leases whose deadline has passed; returns them."""
        now = time.time() if now is None else now
        with self.lock:
            expired = [
                lease for lease in self.leases.values()
                if lease["deadline"] is not None and lease["deadline"] < now
            ]
            for lease in expired:
                del self.leases[lease["key"]]
                self._consume(
                    lease["key"], f"lease expired after {lease['ttl_s']:g}s without heartbeat"
                )
            return expired

    def _consume(self, key: str, error: str) -> bool:
        """One attempt spent: re-queue, or journal ``failed`` past ``retries``."""
        attempts = self.attempts[key] = self.attempts.get(key, 0) + 1
        if attempts <= self.retries:
            self.pending.append(key)
            return True
        cell = self.cells[key]
        self.failed[key] = error
        self.failures.append(
            {"key": key, "experiment_id": cell.experiment_id, "label": cell.spec.label,
             "error": error, "attempts": attempts}
        )
        self._journal("failed", key, error=error, attempts=attempts)
        self._event(key, "failed", "runs.cells_failed", error=error)
        return False

    def complete(self) -> bool:
        """Every cell of this invocation is finished, failed or deferred."""
        with self.lock:
            return len(self.done) + len(self.failed) + len(self.deferred) == len(self.cells)

    def summary(self) -> dict[str, Any]:
        """Cell/cached/run/failed/deferred counts, the failure list, wall time."""
        with self.lock:
            cached = sum(1 for v in self.done.values() if v == "cached")
            return {
                "cells": len(self.cells),
                "cached": cached,
                "run": len(self.done) - cached,
                "failed": len(self.failures),
                "deferred": len(self.deferred),
                "failures": list(self.failures),
                "wall_s": time.perf_counter() - self.started,
            }


def run_cells(
    cells: Sequence[CellSpec],
    *,
    store: ResultStore,
    journal: Journal | None = None,
    workers: int | None = 0,
    timeout: float | None = DEFAULT_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
    force: bool = False,
    max_cells: int | None = None,
    events_dir: str | Path | None = None,
    profile_dir: str | Path | None = None,
) -> dict[str, Any]:
    """Execute a batch of cells through the cache and the pool.

    Returns a summary dict (cell/cached/run/failed/deferred counts, the
    failure list, wall time).  ``max_cells`` caps how many *pending* cells
    execute this invocation — the rest are journalled ``scheduled`` only
    and picked up by a later resume (an operational budget knob, also the
    deterministic interruption used by the resumability tests).
    ``events_dir``/``profile_dir`` turn on per-cell event shipping and
    cProfile+tracemalloc profiling in the workers (see
    :func:`execute_cell`); they are execution knobs outside the cache key.
    """
    args: list[Any] = []
    for root in (events_dir, profile_dir):
        if root is not None:
            Path(root).mkdir(parents=True, exist_ok=True)
        args.append(None if root is None else str(root))
    with _OBS.span("runs.schedule"):
        queue = CellQueue(
            cells, store=store, journal=journal, retries=retries, force=force, max_cells=max_cells
        )
        if (workers or 0) <= 1:
            while (lease := queue.lease()) is not None:
                try:
                    payload = execute_cell(lease["cell"], timeout, lease["delay_s"], *args)
                except Exception as exc:
                    queue.fail(lease["key"], repr(exc))
                else:
                    queue.commit(lease["key"], payload)
        else:
            _drain_pool(queue, int(workers), timeout, args)
    summary = queue.summary()
    if _OBS.active:
        _OBS.gauge("runs.wall_s", summary["wall_s"])
    return summary


def _drain_pool(
    queue: CellQueue, pool_size: int, timeout: float | None, args: Sequence[Any]
) -> None:
    """Lease every pending cell into a process pool (submission order =
    priority order) and commit or fail each future as it completes.

    Local leases carry no deadline — a running pool future cannot be
    cancelled; the in-worker ``SIGALRM`` bounds it instead.  A worker that
    dies (OOM-kill, ``os._exit``) breaks the whole pool: every in-flight
    lease is released, consuming one attempt each exactly like a network
    worker's EOF, and a fresh pool carries on.
    """
    while not queue.complete():
        broken: BrokenProcessPool | None = None
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures: dict[Any, str] = {}
            while True:
                try:
                    while broken is None and (lease := queue.lease()) is not None:
                        future = pool.submit(
                            execute_cell, lease["cell"], timeout, lease["delay_s"], *args
                        )
                        futures[future] = lease["key"]
                except BrokenProcessPool as exc:
                    broken = exc
                if not futures:
                    break
                done, _ = wait(futures, return_when=FIRST_COMPLETED)
                for future in done:
                    key = futures.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool as exc:
                        broken = exc  # the lease stays held until the release below
                    except Exception as exc:
                        queue.fail(key, repr(exc))
                    else:
                        queue.commit(key, payload)
        if broken is not None:
            queue.release(None, repr(broken))
