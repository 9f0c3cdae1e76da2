"""The distributed sweep backend: ``repro.runs.protocol`` + ``repro.runs.net``.

Pins the acceptance criteria of the network scheduler:

1. **wire fidelity** — a cell surviving the JSON round trip keys
   identically (tuples become lists, canonical-JSON keys don't care),
   and the ``runs-net/v1`` schema string is frozen;
2. **bit identity** — a sweep sharded over ≥2 TCP workers produces a
   store bit-identical (modulo provenance/duration/telemetry) to the
   single-machine scheduler, including across real worker subprocesses;
3. **robustness** — torn/garbage/oversized frames earn ``error``
   replies without killing the coordinator; duplicate result delivery
   is idempotent (one store commit, one journal ``finished``); a worker
   that stops heartbeating loses its lease to the reaper and the cell
   re-queues; a worker whose socket dies re-queues immediately; retries
   exhausted journal ``failed`` and the sweep completes anyway;
4. **crash-safe coordination** — re-serving (or locally resuming) an
   interrupted distributed sweep runs exactly the unfinished cells, and
   the journal shows every cell executed exactly once.
"""

from __future__ import annotations

import io
import json
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.runs import (
    Coordinator,
    FrameError,
    Journal,
    MAX_FRAME_BYTES,
    NET_SCHEMA,
    ResultStore,
    cell_from_wire,
    cell_key,
    cell_to_wire,
    execute_cell,
    read_journal,
    read_workers,
    recv_frame,
    run_sweep,
    run_worker,
    send_frame,
    serve_sweep,
)
from repro.runs.net import parse_address
from repro.runs.watch import render_watch, sweep_snapshot

from test_runs import F1_OVERRIDES, tiny_cell


def strip_volatile(payload):
    payload = dict(payload)
    payload.pop("provenance", None)
    payload.pop("duration_s", None)
    payload.pop("telemetry", None)
    return payload


def assert_stores_identical(a: ResultStore, b: ResultStore):
    assert a.keys() == b.keys() and a.keys()
    for key in a.keys():
        assert strip_volatile(a.get(key)) == strip_volatile(b.get(key)), key


class RawClient:
    """A hand-rolled protocol client for robustness tests (no run_worker
    conveniences, so tests can misbehave: skip heartbeats, resend
    results, ship garbage, vanish mid-lease)."""

    def __init__(self, address):
        self.sock = socket.create_connection(address, timeout=30.0)
        self.rfile = self.sock.makefile("rb")
        self.wfile = self.sock.makefile("wb")

    def request(self, message):
        send_frame(self.wfile, message)
        return recv_frame(self.rfile)

    def register(self):
        import os

        reply = self.request(
            {"type": "register", "schema": NET_SCHEMA, "host": "test", "pid": os.getpid()}
        )
        assert reply["type"] == "welcome"
        return reply

    def send_raw(self, data: bytes):
        self.wfile.write(data)
        self.wfile.flush()

    def close(self):
        # makefile() handles keep the fd referenced — close them too, or
        # the peer never sees FIN (a SIGKILLed process closes everything).
        self.rfile.close()
        self.wfile.close()
        self.sock.close()


@pytest.fixture
def coordinator(tmp_path):
    """A serving coordinator over two tiny cells, with teardown."""
    cells = [tiny_cell("net-a"), tiny_cell("net-b", n=24)]
    store = ResultStore(tmp_path / "store")
    journal = Journal(tmp_path / "journal.jsonl", sweep={"experiments": ["X"], "workers": 0})
    coord = Coordinator(
        cells,
        store=store,
        journal=journal,
        out_dir=tmp_path,
        retries=1,
        lease_ttl_s=0.3,
        events=False,
    )
    address = coord.start()
    yield coord, address, store, tmp_path
    coord.stop()
    journal.close()


# -- wire protocol -------------------------------------------------------------


def test_net_schema_frozen():
    assert NET_SCHEMA == "runs-net/v1"


def test_cell_wire_round_trip_preserves_key():
    cell = tiny_cell("wire", n=20)
    wire = json.loads(json.dumps(cell_to_wire(cell), sort_keys=True, default=str))
    assert cell_key(cell_from_wire(wire)) == cell_key(cell)


def test_cell_wire_round_trip_with_tuple_kwargs():
    # Tuples become lists on the wire; canonical-JSON keys must not care.
    cell = tiny_cell("tuple", generator_kwargs={"n": 16, "m": 4, "slack": 0.5})
    import dataclasses

    spec = dataclasses.replace(cell.spec, protocol_kwargs={"probes": (1, 2, 3)})
    cell = dataclasses.replace(cell, spec=spec, seed_key="crn")
    wire = json.loads(json.dumps(cell_to_wire(cell), sort_keys=True, default=str))
    rebuilt = cell_from_wire(wire)
    assert cell_key(rebuilt) == cell_key(cell)
    assert rebuilt.seed_key == "crn"
    assert rebuilt.experiment_id == cell.experiment_id


def test_send_recv_frame_round_trip():
    buf = io.BytesIO()
    send_frame(buf, {"type": "lease", "n": 3})
    buf.seek(0)
    assert recv_frame(buf) == {"type": "lease", "n": 3}
    assert recv_frame(buf) is None  # EOF


@pytest.mark.parametrize(
    "raw",
    [
        b"{\"type\": \"lease\"",  # torn: no trailing newline
        b"not json at all\n",
        b"[1, 2, 3]\n",  # JSON but not an object
        b"\"just a string\"\n",
    ],
)
def test_recv_frame_rejects_bad_frames(raw):
    with pytest.raises(FrameError):
        recv_frame(io.BytesIO(raw))


def test_recv_frame_rejects_oversized_frame():
    raw = b'{"pad": "' + b"x" * MAX_FRAME_BYTES + b'"}\n'
    with pytest.raises(FrameError):
        recv_frame(io.BytesIO(raw))


def test_parse_address():
    assert parse_address("example.org:7341") == ("example.org", 7341)
    assert parse_address("7341") == ("127.0.0.1", 7341)
    assert parse_address(("0.0.0.0", 80)) == ("0.0.0.0", 80)


# -- coordinator/worker happy path ---------------------------------------------


def run_worker_thread(address, **kwargs):
    box = {}

    def target():
        try:
            box["report"] = run_worker(address, poll=0.05, **kwargs)
        except Exception as exc:  # surfaced by the caller's assert
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    return thread, box


def serve_in_thread(tmp_path, out_name="net", **kwargs):
    listening = threading.Event()
    box = {}

    def on_listen(addr):
        box["address"] = addr
        listening.set()

    def target():
        try:
            box["summary"] = serve_sweep(
                ["F1"],
                out=tmp_path / out_name,
                overrides=F1_OVERRIDES,
                on_listen=on_listen,
                poll=0.05,
                **kwargs,
            )
        except Exception as exc:
            box["error"] = exc
            listening.set()

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    assert listening.wait(30), "coordinator never started listening"
    return thread, box


def test_distributed_sweep_matches_single_machine(tmp_path):
    reference = run_sweep(["F1"], out=tmp_path / "ref", workers=0, overrides=F1_OVERRIDES)
    assert reference["failed"] == 0

    # events=False: in-process thread workers share the global obs hub,
    # so per-cell sinks are nondeterministic here — event shipping is
    # asserted in test_worker_subprocesses_over_tcp, the real shape.
    server, sbox = serve_in_thread(tmp_path, lease_ttl_s=10.0, events=False)
    workers = [run_worker_thread(sbox["address"]) for _ in range(2)]
    for thread, box in workers:
        thread.join(120)
        assert "error" not in box, box.get("error")
    server.join(120)
    assert "error" not in sbox, sbox.get("error")

    summary = sbox["summary"]
    assert summary["failed"] == 0 and summary["run"] == 3
    assert summary["workers"] == 2
    assert_stores_identical(
        ResultStore(tmp_path / "ref" / "store"), ResultStore(tmp_path / "net" / "store")
    )
    # Per-worker rows reach the watch dashboard.
    snapshot = sweep_snapshot(tmp_path / "net")
    assert {w["id"] for w in snapshot["workers"]} == {"w1", "w2"}
    frame = render_watch(snapshot)
    assert "workers (heartbeat age" in frame
    # The journal shows every cell executed exactly once.
    records = read_journal(tmp_path / "net" / "journal.jsonl")["records"]
    finished = [r for r in records if r["type"] == "finished" and not r.get("cached")]
    assert sorted(r["key"] for r in finished) == sorted(
        ResultStore(tmp_path / "net" / "store").keys()
    )


def test_distributed_rerun_is_all_cache_hits(tmp_path):
    server, sbox = serve_in_thread(tmp_path, lease_ttl_s=10.0)
    thread, box = run_worker_thread(sbox["address"])
    thread.join(120)
    server.join(120)
    assert sbox["summary"]["run"] == 3 and box["report"]["executed"] == 3

    # Same sweep dir again: every cell is a cache hit, so the sweep
    # completes without any worker ever connecting.
    server2, sbox2 = serve_in_thread(tmp_path, lease_ttl_s=10.0)
    server2.join(120)
    assert "error" not in sbox2, sbox2.get("error")
    assert sbox2["summary"]["cached"] == 3
    assert sbox2["summary"]["run"] == 0 and sbox2["summary"]["failed"] == 0


def test_worker_subprocesses_over_tcp(tmp_path):
    """The real thing: 2 `python -m repro runs worker` OS processes."""
    reference = run_sweep(["F1"], out=tmp_path / "ref", workers=0, overrides=F1_OVERRIDES)
    assert reference["failed"] == 0
    server, sbox = serve_in_thread(tmp_path, lease_ttl_s=10.0)
    host, port = sbox["address"]
    # F1 has 3 cells: capping each worker at 2 means neither can drain the
    # sweep alone, so the coordinator is still serving when the slower
    # process connects.
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "runs", "worker", "--connect", f"{host}:{port}",
             "--max-cells", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for _ in range(2)
    ]
    for proc in procs:
        out, err = proc.communicate(timeout=240)
        assert proc.returncode == 0, err
        assert "executed" in out
    server.join(120)
    assert sbox["summary"]["failed"] == 0
    assert_stores_identical(
        ResultStore(tmp_path / "ref" / "store"), ResultStore(tmp_path / "net" / "store")
    )
    # Every cell's shipped events land in one merged timeline.
    assert sbox["summary"]["timeline"]["cells"] == 3


# -- protocol robustness -------------------------------------------------------


def test_garbage_frames_do_not_kill_the_coordinator(coordinator):
    coord, address, store, tmp = coordinator
    rogue = RawClient(address)
    rogue.send_raw(b"not json at all\n")
    assert recv_frame(rogue.rfile)["type"] == "error"
    rogue.send_raw(b"[1,2,3]\n")
    assert recv_frame(rogue.rfile)["type"] == "error"
    # The connection survives garbage: an honest register still works.
    assert rogue.register()["type"] == "welcome"
    # Messages before register (other than register) are rejected politely.
    fresh = RawClient(address)
    assert fresh.request({"type": "lease"})["type"] == "error"
    assert fresh.request({"type": "no-such-type"})["type"] == "error"
    rogue.close()
    fresh.close()
    assert coord.state.bad_frames == 2


def test_half_closed_socket_releases_leases(coordinator):
    coord, address, store, tmp = coordinator
    rogue = RawClient(address)
    rogue.register()
    grant = rogue.request({"type": "lease"})
    assert grant["type"] == "lease"
    key = grant["key"]
    rogue.close()  # vanish mid-lease, no heartbeat ever sent
    deadline = time.time() + 10
    while time.time() < deadline and key not in coord.state.pending:
        time.sleep(0.02)
    assert key in coord.state.pending  # re-queued at EOF, before any ttl
    assert coord.state.attempts[key] == 1


def test_lease_expiry_requeues_and_sweep_completes(coordinator):
    coord, address, store, tmp = coordinator
    rogue = RawClient(address)
    rogue.register()
    grant = rogue.request({"type": "lease"})
    assert grant["type"] == "lease"
    # Hold the lease without heartbeating; ttl is 0.3s.
    deadline = time.time() + 10
    while time.time() < deadline and not coord.state.reap():
        time.sleep(0.05)
    # Late heartbeat after expiry is told so.
    assert rogue.request({"type": "heartbeat", "key": grant["key"]})["type"] == "expired"
    assert coord.state.lease_expiries == 1
    # An honest worker completes the whole sweep, expired cell included.
    thread, box = run_worker_thread(address)
    summary_box = {}

    def wait_done():
        summary_box["summary"] = coord.wait(poll=0.05, deadline_s=120)

    waiter = threading.Thread(target=wait_done, daemon=True)
    waiter.start()
    thread.join(120)
    waiter.join(120)
    assert "error" not in box
    assert summary_box["summary"]["run"] == 2 and summary_box["summary"]["failed"] == 0
    records = read_journal(tmp / "journal.jsonl")["records"]
    assert sum(1 for r in records if r["type"] == "lease_expired") == 1
    # Exactly one journalled finish per cell despite the expiry.
    finished = [r["key"] for r in records if r["type"] == "finished"]
    assert len(finished) == len(set(finished)) == 2
    rogue.close()


def test_duplicate_result_delivery_is_idempotent(coordinator):
    coord, address, store, tmp = coordinator
    client = RawClient(address)
    client.register()
    grant = client.request({"type": "lease"})
    key = grant["key"]
    payload = execute_cell(cell_from_wire(grant["cell"]))
    assert payload["key"] == key
    first = client.request({"type": "result", "key": key, "payload": payload})
    assert first == {"type": "ack", "committed": True, "duplicate": False}
    before = store.get(key)
    second = client.request({"type": "result", "key": key, "payload": payload})
    assert second == {"type": "ack", "committed": False, "duplicate": True}
    assert store.get(key) == before  # no second store write
    records = read_journal(tmp / "journal.jsonl")["records"]
    assert sum(1 for r in records if r["type"] == "finished" and r["key"] == key) == 1
    client.close()


def test_result_for_wrong_key_is_rejected(coordinator):
    coord, address, store, tmp = coordinator
    client = RawClient(address)
    client.register()
    grant = client.request({"type": "lease"})
    payload = execute_cell(cell_from_wire(grant["cell"]))
    reply = client.request(
        {"type": "result", "key": "0" * 32, "payload": payload}
    )
    assert reply["type"] == "error"
    mismatched = dict(payload, key="0" * 32)
    reply = client.request({"type": "result", "key": grant["key"], "payload": mismatched})
    assert reply["type"] == "error"
    assert not store.has(grant["key"])
    client.close()


def test_stale_failure_report_cannot_fail_a_re_leased_cell(tmp_path):
    """Worker A's lease expires and B re-leases the cell.  A's late
    ``failed`` is not the holder's report: it consumes no attempt, and
    B's result is committed and journalled ``finished`` exactly once."""
    store = ResultStore(tmp_path / "store")
    journal = Journal(tmp_path / "journal.jsonl")
    coord = Coordinator(
        [tiny_cell("stale")], store=store, journal=journal, retries=1, lease_ttl_s=0.1,
        events=False,
    )
    address = coord.start()
    a, b = RawClient(address), RawClient(address)
    try:
        a.register()
        b.register()
        key = a.request({"type": "lease"})["key"]
        assert coord.state.reap(now=time.time() + 1.0)  # A's lease expires
        stale = {"type": "failed", "key": key, "error": "late"}
        duplicate = {"type": "ack", "requeued": False, "duplicate": True}
        # Stale while the cell waits in the queue: ignored, queued once.
        assert a.request(stale) == duplicate
        assert list(coord.state.pending) == [key]
        grant = b.request({"type": "lease"})
        assert grant["key"] == key and grant["attempt"] == 1
        # Stale while B holds the lease: B's attempt is untouched.
        assert a.request(stale) == duplicate
        assert coord.state.attempts[key] == 1
        payload = execute_cell(cell_from_wire(grant["cell"]))
        reply = b.request({"type": "result", "key": key, "payload": payload})
        assert reply == {"type": "ack", "committed": True, "duplicate": False}
        assert store.has(key)
        summary = coord.wait(poll=0.01, deadline_s=30)
        assert summary["failed"] == 0 and summary["run"] == 1
        records = read_journal(tmp_path / "journal.jsonl")["records"]
        ends = [r["type"] for r in records if r.get("key") == key and r["type"] in ("finished", "failed")]
        assert ends == ["finished"]
    finally:
        a.close()
        b.close()
        coord.stop()
        journal.close()


def test_late_commit_from_expired_lease_is_never_leased_again(tmp_path):
    store = ResultStore(tmp_path / "store")
    journal = Journal(tmp_path / "journal.jsonl")
    cells = [tiny_cell("late-a"), tiny_cell("late-b", n=24)]
    coord = Coordinator(
        cells, store=store, journal=journal, retries=1, lease_ttl_s=0.1, events=False
    )
    address = coord.start()
    a, b = RawClient(address), RawClient(address)
    try:
        a.register()
        b.register()
        grant = a.request({"type": "lease"})
        assert coord.state.reap(now=time.time() + 1.0)  # re-queued behind the other cell
        payload = execute_cell(cell_from_wire(grant["cell"]))
        reply = a.request({"type": "result", "key": grant["key"], "payload": payload})
        assert reply["committed"]  # late, but nobody beat it
        other = b.request({"type": "lease"})
        assert other["type"] == "lease" and other["key"] != grant["key"]
        # The committed cell still sits in the queue; it is never re-executed.
        assert b.request({"type": "lease"})["type"] == "wait"
    finally:
        a.close()
        b.close()
        coord.stop()
        journal.close()


def test_register_rejects_schema_and_version_mismatch(coordinator):
    coord, address, store, tmp = coordinator
    client = RawClient(address)
    reply = client.request({"type": "register", "schema": "runs-net/v0"})
    assert reply["type"] == "error"
    client2 = RawClient(address)
    reply = client2.request(
        {"type": "register", "schema": NET_SCHEMA, "package_version": "not-this-one"}
    )
    assert reply["type"] == "error" and "version" in reply["error"]
    client.close()
    client2.close()


def test_late_worker_after_completion_is_told_done(tmp_path):
    # A worker can connect in the moment between the last commit and the
    # server shutting down, when the journal is already closed.
    journal = Journal(tmp_path / "journal.jsonl")
    coord = Coordinator([], store=ResultStore(tmp_path / "store"), journal=journal, events=False)
    journal.close()
    welcome, close = coord.dispatch(
        None, {"type": "register", "schema": NET_SCHEMA, "host": "h", "pid": 1}
    )
    assert welcome["type"] == "welcome" and not close
    assert coord.dispatch(welcome["worker"], {"type": "lease"})[0] == {"type": "done"}


def test_failed_cells_requeue_then_fail_and_sweep_completes(tmp_path):
    from test_runs import failing_cell

    store = ResultStore(tmp_path / "store")
    journal = Journal(tmp_path / "journal.jsonl")
    coord = Coordinator(
        [failing_cell()],
        store=store,
        journal=journal,
        out_dir=tmp_path,
        retries=1,
        lease_ttl_s=5.0,
        events=False,
    )
    address = coord.start()
    try:
        thread, box = run_worker_thread(address)
        summary = coord.wait(poll=0.05, deadline_s=60)
        thread.join(60)
        assert "error" not in box
        assert box["report"]["failed"] == 2  # initial attempt + 1 retry
        assert summary["failed"] == 1 and summary["run"] == 0
        assert summary["failures"][0]["attempts"] == 2
        records = read_journal(tmp_path / "journal.jsonl")["records"]
        assert sum(1 for r in records if r["type"] == "failed") == 1
    finally:
        coord.stop()
        journal.close()


def test_coordinator_restart_resumes(tmp_path):
    """Kill the coordinator mid-sweep; re-serving finishes the rest."""
    server, sbox = serve_in_thread(tmp_path, lease_ttl_s=10.0)
    thread, box = run_worker_thread(sbox["address"], max_cells=1)
    thread.join(120)
    assert box["report"]["executed"] == 1
    # Simulate the crash: abandon the serve thread by completing later —
    # the Coordinator object dies with its daemon thread; the sweep dir
    # (journal + 1 committed cell) is what a restart has to work with.
    # A second serve over the same dir must run exactly the 2 others.
    server2, sbox2 = serve_in_thread(tmp_path, lease_ttl_s=10.0)
    thread2, box2 = run_worker_thread(sbox2["address"])
    thread2.join(120)
    server2.join(120)
    assert "error" not in sbox2
    assert sbox2["summary"]["cached"] == 1 and sbox2["summary"]["run"] == 2
    assert box2["report"]["executed"] == 2
    # ... and a *local* resume also sees nothing left to do.
    from repro.runs import resume_sweep

    summary = resume_sweep(tmp_path / "net")
    assert summary["cached"] == 3 and summary["run"] == 0
    reference = run_sweep(["F1"], out=tmp_path / "ref", workers=0, overrides=F1_OVERRIDES)
    assert reference["failed"] == 0
    assert_stores_identical(
        ResultStore(tmp_path / "ref" / "store"), ResultStore(tmp_path / "net" / "store")
    )
    # The first, abandoned coordinator still holds the socket; let it go.
    del server, sbox


def test_workers_json_shape(tmp_path):
    server, sbox = serve_in_thread(tmp_path, lease_ttl_s=10.0)
    thread, box = run_worker_thread(sbox["address"])
    thread.join(120)
    server.join(120)
    table = read_workers(tmp_path / "net")
    assert table["schema"] == "runs-workers/v1"
    assert table["lease_ttl_s"] == 10.0
    (worker,) = table["workers"]
    assert worker["cells_done"] == 3 and worker["host"]
    assert read_workers(tmp_path) is None  # no table here


def test_workers_roster_and_cli(tmp_path, capsys):
    from repro.cli import main
    from repro.runs import render_workers, workers_roster

    server, sbox = serve_in_thread(tmp_path, lease_ttl_s=10.0)
    thread, box = run_worker_thread(sbox["address"])
    thread.join(120)
    server.join(120)

    roster = workers_roster(tmp_path / "net")
    assert roster is not None
    (row,) = roster
    assert row["cells_done"] == 3
    assert row["alive"] in (True, False)  # joined view carries liveness
    assert "lease_expired" in row

    text = render_workers(roster)
    assert "workers —" in text and row["id"][:8] in text

    assert main(["runs", "workers", str(tmp_path / "net")]) == 0
    out = capsys.readouterr().out
    assert "workers —" in out

    assert main(["runs", "workers", str(tmp_path / "net"), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["cells_done"] == 3

    # No workers.json (plain local sweep) -> explicit error, not a crash.
    assert main(["runs", "workers", str(tmp_path)]) == 1
