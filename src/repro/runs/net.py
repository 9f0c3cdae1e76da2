"""Distributed sweeps: the network transport of the cell queue.

One queue, two transports: :class:`~repro.runs.scheduler.CellQueue`
schedules every sweep; :func:`~repro.runs.scheduler.run_cells` drains it
into a local process pool, this module drains it over *machines*.  One
**coordinator** owns the sweep directory — journal, content-addressed
store, cell queue — and serves the line-framed ``runs-net/v1`` protocol
(:mod:`repro.runs.protocol`) over TCP.  Any number of **workers**
(``repro-qoslb runs worker --connect host:port``) register, pull leased
cells, execute them through the existing :func:`~repro.runs.scheduler.
execute_cell`, stream heartbeats, and ship the ``runs-cell/v1`` payload
(plus the cell's ``obs-events/v1`` file) back for the coordinator to
commit.  Because payloads are a pure function of the cell description,
a sweep sharded over N workers produces a store bit-identical — modulo
provenance/telemetry — to the single-machine scheduler, and identical
re-sweeps are 100% cache hits regardless of where cells ran.

Robustness model (the queue's own policies; the network adds only the
deadline, the worker table and the frame handling):

- **leases, not assignments** — a granted cell carries a deadline;
  heartbeats extend it.  A worker that stops heartbeating (SIGSTOP,
  network partition) loses the lease to the reaper (journalled
  ``lease_expired``); a worker whose socket dies (SIGKILL, crash) loses
  it immediately on EOF — the same release a dead local pool worker
  gets.  Either way the cell re-queues under the queue's retry/backoff
  accounting — retries exhausted means ``failed``, and the sweep
  *completes* without it.  Only the current lease holder may report a
  failure; a stale report is acked ``duplicate`` and costs nothing.
- **idempotent commit** — results are committed at most once per key: a
  late delivery from an expired lease still counts if nobody beat it
  (and the cell is then never leased again), and a duplicate (the
  re-queued copy also finished) is acked without a second store write
  or journal record, so "each cell executed exactly once" holds at the
  journal level.
- **crash-safe coordination** — lease grants/expiries are journalled as
  informational records (unknown types are skipped by the journal fold),
  so a coordinator crash costs at most in-flight leases: re-serving (or
  plain ``sweep --resume``) re-enumerates the cells and every committed
  one is a cache hit.
- **torn frames tolerated** — a garbage or half-written frame earns an
  ``error`` reply, never a crash, mirroring the torn-journal-line
  contract.

The coordinator additionally maintains ``<sweep>/workers.json``
(``runs-workers/v1``, atomically replaced) — the live worker table the
``runs watch`` dashboard renders per-worker rows from.
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Iterable

from .journal import Journal
from .protocol import (
    NET_SCHEMA,
    FrameError,
    cell_from_wire,
    cell_to_wire,
    recv_frame,
    send_frame,
)
from .scheduler import DEFAULT_RETRIES, DEFAULT_TIMEOUT, CellQueue, execute_cell
from .store import CellSpec, ResultStore
from .sweep import drive_sweep

__all__ = [
    "DEFAULT_LEASE_TTL_S",
    "WORKERS_NAME",
    "WORKERS_SCHEMA",
    "Coordinator",
    "parse_address",
    "read_workers",
    "run_worker",
    "serve_sweep",
]

#: Lease time-to-live: a leased cell whose worker has not heartbeat for
#: this long is reclaimed.  Workers heartbeat at ttl/3, so one lost
#: heartbeat never costs a lease; cells longer than the ttl are fine as
#: long as the worker stays alive.
DEFAULT_LEASE_TTL_S = 30.0

#: Live worker-table file in the sweep dir (``runs watch`` reads it).
WORKERS_NAME = "workers.json"
WORKERS_SCHEMA = "runs-workers/v1"


def parse_address(value: Any, *, default_host: str = "127.0.0.1") -> tuple[str, int]:
    """``(host, port)`` from a tuple, ``"host:port"`` or bare ``"port"``."""
    if isinstance(value, (tuple, list)):
        return str(value[0]), int(value[1])
    host, _, port = str(value).rpartition(":")
    return (host or default_host), int(port)


class _NetQueue(CellQueue):
    """The shared :class:`~repro.runs.scheduler.CellQueue` plus what only
    the network has: the worker table behind ``register`` and
    ``workers.json``, the informational ``lease_expired`` journal
    records, and the expiry and bad-frame counters.  Frames are answered
    by :meth:`Coordinator.dispatch` under :attr:`lock`."""

    def __init__(self, cells: Iterable[CellSpec], *, lease_ttl_s: float, **kwargs: Any):
        super().__init__(cells, **kwargs)
        self.lease_ttl_s = float(lease_ttl_s)
        self.workers: dict[str, dict[str, Any]] = {}
        self.lease_expiries = 0
        self.bad_frames = 0
        self.dirty = True  # workers.json wants a rewrite

    def disconnect(self, worker_id: str) -> None:
        """Connection gone: the worker's lease (if any) re-queues *now* —
        a SIGKILLed worker is detected at EOF, not at lease expiry."""
        with self.lock:
            self.workers[worker_id].update(alive=False, leased=None)
            self.release(worker_id, f"worker {worker_id} disconnected")
            self.dirty = True

    def reap(self, now: float | None = None) -> list[dict[str, Any]]:
        with self.lock:
            expired = super().reap(now)
            for lease in expired:
                self.lease_expiries += 1
                self._journal(
                    "lease_expired", lease["key"], worker=lease["worker"], attempt=lease["attempt"]
                )
                info = self.workers[lease["worker"]]
                if info["leased"] == lease["key"]:
                    info["leased"] = None
                self.dirty = True
            return expired

    def note_bad_frame(self) -> None:
        with self.lock:
            self.bad_frames += 1

    def summary(self) -> dict[str, Any]:
        """The run_cells-shaped summary, plus network counters."""
        with self.lock:
            return dict(
                super().summary(), workers=len(self.workers),
                lease_expiries=self.lease_expiries, bad_frames=self.bad_frames,
            )

    def workers_payload(self) -> dict[str, Any]:
        with self.lock:
            self.dirty = False
            return {
                "schema": WORKERS_SCHEMA,
                "t": time.time(),
                "lease_ttl_s": self.lease_ttl_s,
                "pending": len(self.pending),
                "leases": [
                    {**{k: l[k] for k in ("key", "worker", "attempt", "deadline")},
                     "label": l["cell"].spec.label}
                    for l in self.leases.values()
                ],
                "workers": [dict(w) for w in self.workers.values()],
            }


class _Handler(socketserver.StreamRequestHandler):
    """One thread per worker connection; frames in, frames out."""

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        coordinator: Coordinator = self.server.coordinator  # type: ignore[attr-defined]
        worker_id: str | None = None
        while True:
            try:
                message = recv_frame(self.rfile)
            except FrameError as exc:
                coordinator.state.note_bad_frame()
                try:
                    send_frame(self.wfile, {"type": "error", "error": str(exc)})
                except OSError:
                    break
                continue
            except OSError:
                break
            if message is None:  # EOF: half-closed or killed peer
                break
            reply, close = coordinator.dispatch(worker_id, message)
            if reply.get("type") == "welcome":
                worker_id = reply["worker"]
            try:
                send_frame(self.wfile, reply)
            except OSError:
                break
            if close:
                break
        if worker_id is not None:
            coordinator.state.disconnect(worker_id)


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True


class Coordinator:
    """Serve a batch of cells to ``runs-net/v1`` workers until complete.

    Owns every sweep-dir write: journal records, store commits, shipped
    event files, and the live ``workers.json`` table.  Workers never
    touch the sweep directory — they may not even share a filesystem.
    """

    def __init__(
        self,
        cells: Iterable[CellSpec],
        *,
        store: ResultStore,
        journal: Journal | None = None,
        out_dir: str | Path | None = None,
        retries: int = DEFAULT_RETRIES,
        timeout: float | None = DEFAULT_TIMEOUT,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
        events: bool = True,
        force: bool = False,
    ):
        self.timeout = timeout
        self.out_dir = Path(out_dir) if out_dir is not None else None
        self.events_dir: Path | None = None
        if events and self.out_dir is not None:
            self.events_dir = self.out_dir / "events"
            self.events_dir.mkdir(parents=True, exist_ok=True)
        self.state = _NetQueue(
            cells, store=store, journal=journal, retries=retries, force=force,
            lease_ttl_s=lease_ttl_s,
        )
        self._server: _Server | None = None
        self._thread: threading.Thread | None = None

    # -- message dispatch (called from handler threads) ------------------------

    def dispatch(
        self, worker_id: str | None, message: dict[str, Any]
    ) -> tuple[dict[str, Any], bool]:
        """Route one frame; returns ``(reply, close_connection)``."""
        from .. import __version__

        mtype = message.get("type")
        if mtype == "register":
            if message.get("schema") != NET_SCHEMA:
                return (
                    {"type": "error", "error": f"expected schema {NET_SCHEMA}"},
                    True,
                )
            theirs = message.get("package_version")
            if theirs is not None and theirs != __version__:
                # Version skew changes cell keys (the key is salted with
                # the package version) — results would never match.
                return (
                    {
                        "type": "error",
                        "error": f"package version mismatch: coordinator "
                        f"{__version__}, worker {theirs}",
                    },
                    True,
                )
        elif worker_id is None:
            return {"type": "error", "error": "register first"}, False
        elif mtype == "bye":
            return {"type": "ack"}, True
        state, key, now = self.state, message.get("key"), time.time()
        with state.lock:
            state.dirty = True
            if mtype == "register":
                worker_id = f"w{len(state.workers) + 1}"
                host, pid = str(message.get("host") or "?"), int(message.get("pid") or 0)
                state.workers[worker_id] = dict(
                    id=worker_id, host=host, pid=pid, connected_unix=now, last_seen=now,
                    leased=None, cells_done=0, alive=True,
                )
                # A worker that connects just as the last cell commits is
                # only told "done"; by then the journal may be closed.
                if state.journal is not None and not state.complete():
                    state.journal.append("worker", worker=worker_id, host=host, pid=pid)
                return {
                    "type": "welcome",
                    "schema": NET_SCHEMA,
                    "worker": worker_id,
                    "lease_ttl_s": state.lease_ttl_s,
                    "events": self.events_dir is not None,
                    "timeout_s": self.timeout,
                    "package_version": __version__,
                }, False
            info = state.workers[worker_id]
            info["last_seen"] = now
            if mtype == "lease":
                if state.complete():
                    return {"type": "done"}, False
                lease = state.lease(worker_id, state.lease_ttl_s)
                if lease is None:
                    return {"type": "wait", "pending": 0, "leased": len(state.leases)}, False
                key = info["leased"] = lease["key"]
                state._journal(
                    "lease", key, worker=worker_id, attempt=lease["attempt"],
                    ttl_s=state.lease_ttl_s,
                )
                return {
                    "type": "lease",
                    "key": key,
                    "cell": cell_to_wire(lease["cell"]),
                    "attempt": lease["attempt"],
                    "delay_s": lease["delay_s"],
                    "lease_ttl_s": state.lease_ttl_s,
                }, False
            if mtype == "heartbeat":
                extended = isinstance(key, str) and state.extend(key, worker_id)
                return {"type": "ack" if extended else "expired", "key": key}, False
            if mtype not in ("result", "failed"):
                return {"type": "error", "error": f"unknown message type {mtype!r}"}, False
            if not isinstance(key, str) or key not in state.cells:
                return {"type": "error", "error": f"unknown cell {key!r}"}, False
            if mtype == "failed":
                requeued = state.fail(key, str(message.get("error")), worker_id)
                reply = {"type": "ack", "requeued": bool(requeued)}
                if requeued is None:  # not the lease holder: a stale or repeated report
                    reply["duplicate"] = True
            else:
                # Land the events file before commit marks the cell done: the
                # moment the last cell is done the wait loop may merge the
                # timeline, so writing after commit races the merge.
                events_text = message.get("events")
                if self.events_dir is not None and events_text and not state.settled(key):
                    from ..obs.aggregate import write_cell_events

                    write_cell_events(self.events_dir, key, str(events_text))
                try:
                    committed = state.commit(key, message.get("payload"), worker_id)
                except ValueError as exc:
                    return {"type": "error", "error": str(exc)}, False
                info["cells_done"] += int(committed)
                reply = {"type": "ack", "committed": committed, "duplicate": not committed}
            if info["leased"] == key:
                info["leased"] = None
            return reply, False

    # -- lifecycle -------------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and serve in a daemon thread; returns ``(host, port)``."""
        self._server = _Server((host, port), _Handler)
        self._server.coordinator = self  # type: ignore[attr-defined]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="runs-net-coordinator",
            daemon=True,
        )
        self._thread.start()
        addr = self._server.server_address
        return str(addr[0]), int(addr[1])

    def wait(self, poll: float = 0.2, deadline_s: float | None = None) -> dict[str, Any]:
        """Reap leases and refresh ``workers.json`` until the sweep completes."""
        while True:
            self.state.reap()
            self._flush_workers_file()
            if self.state.complete():
                break
            if deadline_s is not None and time.perf_counter() - self.state.started > deadline_s:
                raise TimeoutError(f"sweep incomplete after {deadline_s:g}s")
            time.sleep(poll)
        self._flush_workers_file(final=True)
        return self.state.summary()

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None

    def _flush_workers_file(self, final: bool = False) -> None:
        if self.out_dir is None or not (self.state.dirty or final):
            return
        payload = self.state.workers_payload()
        path = self.out_dir / WORKERS_NAME
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)


def read_workers(out: str | Path) -> dict[str, Any] | None:
    """The coordinator's live worker table, or ``None`` when absent/torn."""
    path = Path(out) / WORKERS_NAME
    try:
        data = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(data, dict) or data.get("schema") != WORKERS_SCHEMA:
        return None
    return data


def serve_sweep(
    experiment_ids: list[str] | None = None,
    *,
    out: str | Path,
    host: str = "127.0.0.1",
    port: int = 0,
    scale: str = "ci",
    overrides: dict[str, dict[str, Any]] | None = None,
    retries: int = DEFAULT_RETRIES,
    timeout: float | None = DEFAULT_TIMEOUT,
    lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    events: bool = True,
    force: bool = False,
    poll: float = 0.2,
    deadline_s: float | None = None,
    on_listen: Callable[[tuple[str, int]], None] | None = None,
) -> dict[str, Any]:
    """Coordinate a sweep over the network; blocks until it completes.

    The distributed twin of :func:`~repro.runs.sweep.run_sweep`: same
    sweep directory layout, same journal schema, same summary shape —
    only execution moves to remote workers.  Serving an existing sweep
    dir continues it (finished cells are cache hits), which is also how
    a coordinator restart resumes: re-serve the same directory.  A dir
    served here can equally be finished locally with ``sweep --resume``
    (the journalled config carries ``workers: 0``).
    """
    def drain(cells: list[CellSpec], store: ResultStore, journal: Journal, out_dir: Path) -> dict:
        coordinator = Coordinator(
            cells, store=store, journal=journal, out_dir=out_dir, retries=retries,
            timeout=timeout, lease_ttl_s=lease_ttl_s, events=events, force=force,
        )
        address = coordinator.start(host, port)
        if on_listen is not None:
            on_listen(address)
        try:
            summary = coordinator.wait(poll=poll, deadline_s=deadline_s)
        finally:
            coordinator.stop()
        return {**summary, "served": {"host": address[0], "port": address[1]}}

    transport = {
        "workers": 0,  # a plain --resume of this dir runs locally
        "events": bool(events),
        "profile": False,
        "serve": {"lease_ttl_s": float(lease_ttl_s), "retries": int(retries)},
    }
    return drive_sweep(
        experiment_ids, out=out, scale=scale, overrides=overrides, transport=transport, drain=drain
    )


# -- the worker side -----------------------------------------------------------


class _Connection:
    """One framed request/response channel; a lock serializes exchanges
    so the heartbeat thread and the main loop share the socket safely."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.rfile = sock.makefile("rb")
        self.wfile = sock.makefile("wb")
        self.lock = threading.Lock()

    def request(self, message: dict[str, Any]) -> dict[str, Any]:
        with self.lock:
            send_frame(self.wfile, message)
            reply = recv_frame(self.rfile)
        if reply is None:
            raise ConnectionError("coordinator closed the connection")
        return reply

    def close(self) -> None:
        for closer in (self.rfile.close, self.wfile.close, self.sock.close):
            try:
                closer()
            except OSError:
                pass


def _heartbeat_loop(
    conn: _Connection, key: str, interval: float, stop: threading.Event
) -> None:
    """Extend the lease every ``interval`` seconds until told to stop.

    An ``expired`` reply means the coordinator reclaimed the lease; the
    worker keeps executing anyway — shipping a late result is harmless
    (commit is idempotent) and may even win if the re-queued copy has
    not finished.  A dead socket just ends the loop; the main thread
    hits the same error on its next exchange.
    """
    while not stop.wait(interval):
        try:
            reply = conn.request({"type": "heartbeat", "key": key})
        except (OSError, ConnectionError):
            return
        if reply.get("type") != "ack":
            return


def run_worker(
    connect: Any,
    *,
    poll: float = 0.5,
    max_cells: int | None = None,
) -> dict[str, Any]:
    """Execute leased cells from a coordinator until it says ``done``.

    ``connect`` is ``"host:port"`` (or an ``(host, port)`` tuple).
    Unknown ``welcome`` fields (older coordinators also sent a
    replication ``backend``) are ignored.  ``poll`` is
    the idle re-ask period while other workers hold the last leases;
    ``max_cells`` bounds this worker's share (mainly for tests).

    Events ship back in the ``result`` frame: the cell executes against
    a private temp events dir, and the coordinator writes the file into
    the sweep's ``events/`` for the timeline merge — the worker needs no
    access to the sweep directory at all.
    """
    from .. import __version__

    host, port = parse_address(connect)
    sock = socket.create_connection((host, port), timeout=30.0)
    conn = _Connection(sock)
    executed = failed = 0
    try:
        welcome = conn.request(
            {
                "type": "register",
                "schema": NET_SCHEMA,
                "host": socket.gethostname(),
                "pid": os.getpid(),
                "package_version": __version__,
            }
        )
        if welcome.get("type") != "welcome":
            raise RuntimeError(f"registration rejected: {welcome.get('error', welcome)}")
        worker_id = welcome.get("worker")
        lease_ttl = float(welcome.get("lease_ttl_s") or DEFAULT_LEASE_TTL_S)
        timeout = welcome.get("timeout_s")
        ship_events = bool(welcome.get("events"))
        # A silent coordinator means a dead one: block no longer than a
        # few lease lifetimes on any single exchange.
        sock.settimeout(max(30.0, 4.0 * lease_ttl))

        while True:
            if max_cells is not None and executed + failed >= max_cells:
                conn.request({"type": "bye"})
                break
            grant = conn.request({"type": "lease"})
            grant_type = grant.get("type")
            if grant_type == "done":
                conn.request({"type": "bye"})
                break
            if grant_type == "wait":
                time.sleep(poll)
                continue
            if grant_type != "lease":
                raise RuntimeError(f"unexpected lease reply: {grant}")
            key = str(grant["key"])
            cell = cell_from_wire(grant["cell"])
            delay = float(grant.get("delay_s") or 0.0)
            events_tmp = (
                tempfile.TemporaryDirectory(prefix="repro-worker-") if ship_events else None
            )
            stop = threading.Event()
            beat = threading.Thread(
                target=_heartbeat_loop,
                args=(conn, key, max(0.05, lease_ttl / 3.0), stop),
                daemon=True,
            )
            beat.start()
            payload: dict[str, Any] | None = None
            error: str | None = None
            try:
                try:
                    payload = execute_cell(
                        cell,
                        timeout,
                        delay,
                        events_tmp.name if events_tmp is not None else None,
                        None,
                    )
                finally:
                    stop.set()
                    beat.join(timeout=30.0)
            except Exception as exc:
                error = repr(exc)
            if error is not None:
                conn.request({"type": "failed", "key": key, "error": error})
                failed += 1
            else:
                events_text: str | None = None
                if events_tmp is not None:
                    events_path = Path(events_tmp.name) / f"cell-{key}.jsonl"
                    if events_path.exists():
                        events_text = events_path.read_text()
                reply = conn.request(
                    {"type": "result", "key": key, "payload": payload, "events": events_text}
                )
                if reply.get("type") != "ack":
                    raise RuntimeError(f"result rejected: {reply.get('error', reply)}")
                executed += 1
            if events_tmp is not None:
                events_tmp.cleanup()
    finally:
        conn.close()
    return {
        "worker": worker_id,
        "host": host,
        "port": port,
        "executed": executed,
        "failed": failed,
    }
