"""The ``repro.runs`` subsystem: store, journal, scheduler, sweeps.

Pins the acceptance criteria of the sweep orchestrator:

1. the content-addressed key covers everything that determines results
   (spec, reps, seeds, package version) and nothing else (experiment id);
2. the ``runs-cell/v1`` and ``runs-journal/v1`` formats are frozen —
   field renames fail loudly here, not in a consumer parsing last
   month's sweep directory;
3. resumability: a sweep interrupted after ``k`` of ``N`` cells resumes
   running exactly ``N - k`` (verified against the journal), and a second
   identical sweep is 100% cache hits with bit-identical payloads modulo
   provenance timestamps;
4. self-healing: an always-failing cell is retried the configured number
   of times, journalled ``failed``, and the sweep *completes* anyway;
5. per-cell timeouts surface as :class:`~repro.runs.CellTimeout`.

The 2-worker speedup claim (bench ``runs/overhead`` cell) is asserted in
a stress-marked test gated on having at least two usable cores.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time

import pytest

from repro.runs import (
    CELL_SCHEMA,
    JOURNAL_SCHEMA,
    CellSpec,
    CellTimeout,
    Journal,
    ResultStore,
    backoff_delay,
    build_payload,
    cell_key,
    execute_cell,
    read_journal,
    render_status,
    results_from_payload,
    resume_sweep,
    run_cells,
    run_sweep,
    sweep_status,
    sweepable_experiments,
    use_store,
)
from repro.runs.store import RESULT_FIELDS
from repro.sim.parallel import RunSpec


def tiny_cell(label="c0", *, n=16, m=4, n_reps=2, base_seed=0, **spec_kwargs):
    """A millisecond-scale cell; every field overridable for key tests."""
    fields = dict(
        generator="uniform_slack",
        generator_kwargs={"n": n, "m": m, "slack": 0.5},
        protocol="qos-sampling",
        initial="pile",
        max_rounds=500,
        label=label,
    )
    fields.update(spec_kwargs)
    return CellSpec(spec=RunSpec(**fields), n_reps=n_reps, base_seed=base_seed)


def failing_cell(label="boom"):
    """A cell whose generator does not exist — fails on every attempt."""
    spec = RunSpec(generator="no-such-generator", label=label)
    return CellSpec(spec=spec, n_reps=1)


#: Tiny F1 configuration used by the sweep-level tests (3 cells, <1s).
F1_OVERRIDES = {"F1": {"ns": [16, 32, 64], "n_reps": 2, "users_per_resource": 4}}


# -- cell keys -----------------------------------------------------------------


def test_cell_key_is_deterministic():
    assert cell_key(tiny_cell()) == cell_key(tiny_cell())


@pytest.mark.parametrize(
    "variant",
    [
        tiny_cell(label="other"),
        tiny_cell(n=17),
        tiny_cell(n_reps=3),
        tiny_cell(base_seed=1),
        tiny_cell(max_rounds=501),
        tiny_cell(protocol="qos-permit"),
        dataclasses.replace(tiny_cell(), seed_key="pinned"),
    ],
)
def test_cell_key_covers_result_determining_fields(variant):
    assert cell_key(variant) != cell_key(tiny_cell())


def test_experiment_id_is_provenance_not_key_material():
    base = tiny_cell()
    stamped = dataclasses.replace(base, experiment_id="F1")
    assert cell_key(stamped) == cell_key(base)


def test_sweep_cell_keys_are_unique():
    from repro.runs import enumerate_sweep

    cells = enumerate_sweep(sweepable_experiments(), scale="ci")
    keys = [cell_key(c) for c in cells]
    assert len(keys) == len(set(keys))
    assert all(c.experiment_id for c in cells)


# -- frozen runs-cell/v1 -------------------------------------------------------


def test_frozen_runs_cell_schema(tmp_path):
    cell = tiny_cell()
    results = cell.run()
    payload = build_payload(cell, results, duration_s=0.5)
    assert payload["schema"] == CELL_SCHEMA == "runs-cell/v1"
    assert set(payload) == {"schema", "key", "cell", "results", "duration_s", "provenance"}
    assert payload["key"] == cell_key(cell)
    assert set(payload["cell"]) == {"spec", "n_reps", "base_seed", "seed_key", "experiment_id"}
    for entry in payload["results"]:
        assert set(entry) == set(RESULT_FIELDS)
    # and it survives a JSON round trip through the store bit-for-bit
    store = ResultStore(tmp_path)
    store.put(payload)
    assert store.get(payload["key"]) == json.loads(json.dumps(payload))


def test_telemetry_block_is_additive_and_pinned(tmp_path):
    """The optional telemetry block: frozen keys, same cache key, no effect
    on readers that predate it."""
    from repro.runs.store import TELEMETRY_FIELDS, results_from_payload

    cell = tiny_cell()
    results = cell.run()
    telemetry = {name: 0 for name in TELEMETRY_FIELDS}
    payload = build_payload(cell, results, duration_s=0.5, telemetry=telemetry)
    # Additive: exactly one extra key vs the frozen base schema.
    assert set(payload) == {
        "schema", "key", "cell", "results", "duration_s", "provenance", "telemetry"
    }
    assert set(payload["telemetry"]) == set(TELEMETRY_FIELDS)
    # Provenance, not results: the cache key ignores it entirely.
    assert payload["key"] == build_payload(cell, results, duration_s=0.5)["key"]
    # Readers reconstruct results identically with or without the block.
    assert [r.rounds for r in results_from_payload(payload)] == [r.rounds for r in results]
    store = ResultStore(tmp_path)
    store.put(payload)
    assert store.get(payload["key"])["telemetry"] == telemetry


def test_executed_cell_records_resource_profile():
    """execute_cell always attaches the telemetry block (hub-independent)."""
    from repro.runs.scheduler import execute_cell
    from repro.runs.store import TELEMETRY_FIELDS

    # Serial backend: the scalar engine exercises the state cache, making
    # the hit/miss deltas assertable.
    payload = execute_cell(tiny_cell(), None, 0.0, "serial")
    telemetry = payload["telemetry"]
    assert set(telemetry) == set(TELEMETRY_FIELDS)
    assert telemetry["wall_s"] > 0
    assert telemetry["cpu_user_s"] >= 0
    assert telemetry["max_rss_bytes"] > 0
    assert telemetry["rounds"] == sum(r["rounds"] for r in payload["results"])
    assert telemetry["cache_misses"] > 0  # the run exercised the state cache
    # No events_dir / profile_dir: the opt-in fields stay None.
    assert telemetry["events_file"] is None
    assert telemetry["profile_file"] is None
    assert telemetry["peak_traced_bytes"] is None


def test_executed_cell_ships_events_and_profile(tmp_path):
    """events_dir/profile_dir produce the per-cell JSONL sink (with at
    least one heartbeat) and the .pstats profile."""
    from repro.obs.aggregate import cell_digest
    from repro.runs.scheduler import execute_cell

    cell = tiny_cell()
    events_dir = tmp_path / "events"
    profile_dir = tmp_path / "profiles"
    payload = execute_cell(cell, None, 0.0, None, str(events_dir), str(profile_dir))
    key = payload["key"]
    events_path = events_dir / f"cell-{key}.jsonl"
    assert events_path.exists()
    assert payload["telemetry"]["events_file"] == events_path.name
    digest = cell_digest(events_path)
    assert digest["cell"] == key
    assert digest["closed"]  # clean disable wrote the summary lines
    assert digest["last_heartbeat"] is not None  # first heartbeat always fires
    profile_path = profile_dir / f"cell-{key}.pstats"
    assert profile_path.exists()
    assert payload["telemetry"]["profile_file"] == profile_path.name
    assert payload["telemetry"]["peak_traced_bytes"] > 0


def test_store_round_trip_reconstructs_results(tmp_path):
    cell = tiny_cell()
    results = cell.run()
    store = ResultStore(tmp_path)
    store.store_results(cell, results, duration_s=0.1)
    loaded = store.load_results(cell)
    assert loaded is not None and len(loaded) == len(results)
    for a, b in zip(results, loaded):
        for name in RESULT_FIELDS:
            assert getattr(a, name) == getattr(b, name)
    assert store.duration(cell_key(cell)) == pytest.approx(0.1)


def test_store_corrupt_payload_is_a_miss_and_gc_removes_it(tmp_path):
    store = ResultStore(tmp_path)
    cell = tiny_cell()
    store.store_results(cell, cell.run(), duration_s=0.1)
    (tmp_path / "deadbeef.json").write_text("{not json")
    assert store.get("deadbeef") is None
    preview = store.gc(dry_run=True)
    assert preview["dry_run"] and preview["removed_keys"] == ["deadbeef"]
    assert (tmp_path / "deadbeef.json").exists()  # dry run deletes nothing
    swept = store.gc()
    assert swept["kept"] == 1 and swept["removed"] == 1
    assert not (tmp_path / "deadbeef.json").exists()
    assert store.gc(all_versions=True)["removed"] == 1  # full wipe
    assert store.keys() == []


def test_store_rejects_foreign_schema(tmp_path):
    with pytest.raises(ValueError, match="runs-cell/v1"):
        ResultStore(tmp_path).put({"schema": "other/v9", "key": "k"})


# -- LRU pruning (runs gc --max-age / --max-bytes) -----------------------------


def make_aged_store(tmp_path, ages_s, now=1_000_000.0):
    """A store of tiny payloads whose mtimes are ``now - age`` each."""
    store = ResultStore(tmp_path)
    keys = []
    for i, age in enumerate(ages_s):
        cell = tiny_cell(f"age{i}")
        store.store_results(cell, cell.run(), duration_s=0.01)
        key = cell_key(cell)
        os.utime(store.path(key), (now - age, now - age))
        keys.append(key)
    return store, keys


def test_prune_by_age_evicts_only_idle_payloads(tmp_path):
    now = 1_000_000.0
    store, keys = make_aged_store(tmp_path, ages_s=[0.0, 100.0, 10_000.0], now=now)
    report = store.prune(max_age_s=1_000.0, now=now)
    assert report["removed_keys"] == [keys[2]]
    assert report["kept"] == 2 and not store.path(keys[2]).exists()


def test_prune_by_bytes_evicts_coldest_first(tmp_path):
    now = 1_000_000.0
    store, keys = make_aged_store(tmp_path, ages_s=[0.0, 100.0, 200.0], now=now)
    sizes = {k: store.path(k).stat().st_size for k in keys}
    budget = sizes[keys[0]] + sizes[keys[1]]
    report = store.prune(max_bytes=budget, now=now)
    # Oldest-mtime payload goes first; the two warm ones fit the budget.
    assert report["removed_keys"] == [keys[2]]
    assert report["kept_bytes"] <= budget
    assert store.has(keys[0]) and store.has(keys[1])


def test_prune_dry_run_deletes_nothing(tmp_path):
    now = 1_000_000.0
    store, keys = make_aged_store(tmp_path, ages_s=[5_000.0], now=now)
    report = store.prune(max_age_s=1.0, dry_run=True, now=now)
    assert report["dry_run"] and report["removed_keys"] == keys
    assert store.has(keys[0])


def test_consulting_a_payload_refreshes_its_recency(tmp_path):
    now = 1_000_000.0
    store, keys = make_aged_store(tmp_path, ages_s=[5_000.0], now=now)
    assert store.has(keys[0])  # the probe itself is a "use"
    assert store.path(keys[0]).stat().st_mtime > now - 5_000.0
    report = store.prune(max_age_s=1_000.0, now=time.time())
    assert report["removed"] == 0


def test_pruned_cell_is_journal_safe_resume_recomputes(tmp_path):
    """Eviction = cache miss: a resumed sweep re-runs exactly the pruned cell."""
    out = tmp_path / "sweep"
    first = run_sweep(["F1"], out=out, workers=0, overrides=F1_OVERRIDES)
    assert first["run"] == 3
    store = ResultStore(out / "store")
    victim = store.keys()[0]
    os.utime(store.path(victim), (1.0, 1.0))  # ancient
    report = store.prune(max_age_s=60.0)
    assert report["removed_keys"] == [victim]
    resumed = resume_sweep(out)
    assert resumed["cached"] == 2 and resumed["run"] == 1
    assert store.has(victim)


# -- render-only mode (run --render-only) --------------------------------------


def test_render_only_raises_on_missing_cell(tmp_path):
    from repro.experiments.common import cell as run_cell
    from repro.runs import MissingCellError

    kwargs = dict(
        generator="uniform_slack",
        generator_kwargs={"n": 16, "m": 4, "slack": 0.5},
        max_rounds=500,
        n_reps=2,
        label="render-me",
    )
    with use_store(tmp_path, render_only=True):
        with pytest.raises(MissingCellError, match="render-me"):
            run_cell(**kwargs)
    assert ResultStore(tmp_path).keys() == []  # nothing silently computed

    # Populate normally, then render-only serves it without recomputing.
    with use_store(tmp_path):
        computed = run_cell(**kwargs)
    with use_store(tmp_path, render_only=True):
        rendered = run_cell(**kwargs)
    assert [r.rounds for r in rendered] == [r.rounds for r in computed]


def test_render_only_cli_flag(tmp_path, capsys):
    from repro.cli import main

    with pytest.raises(SystemExit, match="--store"):
        main(["run", "F1", "--render-only"])
    with pytest.raises(SystemExit, match="render-only"):
        main(
            ["run", "F1", "--scale", "ci", "--store", str(tmp_path), "--render-only",
             "--set", "ns=16,32", "--set", "n_reps=2", "--set", "users_per_resource=4"]
        )


# -- frozen runs-journal/v1 ----------------------------------------------------


def test_frozen_runs_journal_schema(tmp_path):
    path = tmp_path / "journal.jsonl"
    with Journal(path, sweep={"experiments": ["F1"], "scale": "ci"}) as journal:
        journal.append("scheduled", key="k1", experiment_id="F1", label="a")
        journal.append("started", key="k1", experiment_id="F1", label="a", attempt=0)
        journal.append("finished", key="k1", experiment_id="F1", label="a", cached=False)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    header = lines[0]
    assert header["type"] == "meta"
    assert header["schema"] == JOURNAL_SCHEMA == "runs-journal/v1"
    assert set(header) >= {"type", "t", "schema", "sweep", "provenance"}
    assert all({"type", "t", "key"} <= set(l) for l in lines[1:])

    data = read_journal(path)
    assert data["meta"]["sweep"]["experiments"] == ["F1"]
    assert data["cells"]["k1"]["type"] == "finished"
    assert data["bad_lines"] == 0


def test_journal_tolerates_torn_trailing_line(tmp_path):
    path = tmp_path / "journal.jsonl"
    with Journal(path, sweep={"experiments": ["F1"]}) as journal:
        journal.append("scheduled", key="k1")
        journal.append("finished", key="k1", cached=False)
    with path.open("a") as fh:
        fh.write('{"type": "finished", "key": "k2", "cach')  # SIGKILL mid-write
    data = read_journal(path)
    assert data["bad_lines"] == 1
    assert set(data["cells"]) == {"k1"}  # the torn record is lost, not the journal


def test_journal_reopen_appends_resume_record(tmp_path):
    path = tmp_path / "journal.jsonl"
    Journal(path, sweep={"experiments": ["F1"]}).close()
    Journal(path, sweep={"experiments": ["F1"]}).close()
    records = [json.loads(l) for l in path.read_text().splitlines()]
    assert [r["type"] for r in records] == ["meta", "resume"]


def test_read_journal_requires_header(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text('{"type": "scheduled", "key": "k1"}\n')
    with pytest.raises(ValueError, match="meta header"):
        read_journal(path)
    path.write_text(json.dumps({"type": "meta", "schema": "other/v1"}) + "\n")
    with pytest.raises(ValueError, match="runs-journal/v1"):
        read_journal(path)


# -- scheduler -----------------------------------------------------------------


def test_backoff_is_capped_exponential():
    assert [backoff_delay(a) for a in range(7)] == [
        0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 8.0,
    ]


def test_execute_cell_timeout_raises():
    slow = CellSpec(
        spec=RunSpec(
            generator="uniform_slack",
            generator_kwargs={"n": 2048, "m": 32, "slack": 0.25},
            protocol="qos-sampling",
            protocol_kwargs={"rate": {"name": "slack-proportional"}},
            initial="pile",
            max_rounds=1_000_000,
            label="slow",
        ),
        n_reps=50,
    )
    with pytest.raises(CellTimeout):
        execute_cell(slow, timeout=0.01)


@pytest.mark.parametrize("workers", [0, 2])
def test_failing_cell_retried_then_failed_without_aborting(tmp_path, workers):
    cells = [failing_cell(), tiny_cell("survivor")]
    journal_path = tmp_path / "journal.jsonl"
    with Journal(journal_path, sweep={"experiments": []}) as journal:
        summary = run_cells(
            cells, store=ResultStore(tmp_path / "store"), journal=journal,
            workers=workers, timeout=None, retries=2,
        )
    assert summary["failed"] == 1 and summary["run"] == 1  # sweep completed
    [failure] = summary["failures"]
    assert failure["attempts"] == 3  # first try + 2 retries
    data = read_journal(journal_path)
    bad_key = cell_key(failing_cell())
    started = [r for r in data["records"] if r["type"] == "started" and r["key"] == bad_key]
    assert [r["attempt"] for r in started] == [0, 1, 2]
    assert data["cells"][bad_key]["type"] == "failed"
    assert data["cells"][cell_key(tiny_cell("survivor"))]["type"] == "finished"


def _die_on_label(cell, *args):
    """``execute_cell`` stand-in whose pool worker dies on the "die" cell."""
    if cell.spec.label == "die":
        os._exit(9)
    return execute_cell(cell, *args)


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method",
)
def test_dead_pool_worker_fails_its_cell_without_aborting(tmp_path, monkeypatch):
    """A pool child that dies (OOM-kill, ``os._exit``) breaks the pool; its
    in-flight leases are released like a network worker's EOF and a fresh
    pool carries on, so the sweep still completes."""
    from concurrent.futures import ProcessPoolExecutor
    from functools import partial

    from repro.runs import scheduler

    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(
        scheduler, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=fork)
    )
    monkeypatch.setattr(scheduler, "execute_cell", _die_on_label)
    cells = [tiny_cell("die"), tiny_cell("survivor")]
    journal_path = tmp_path / "journal.jsonl"
    with Journal(journal_path, sweep={"experiments": []}) as journal:
        summary = run_cells(
            cells, store=ResultStore(tmp_path / "store"), journal=journal,
            workers=2, timeout=None, retries=2,
        )
    [dead] = [f for f in summary["failures"] if f["label"] == "die"]
    assert dead["attempts"] == 3  # first try + 2 retries
    assert summary["run"] + summary["failed"] == 2
    records = read_journal(journal_path)["records"]
    for cell in cells:
        ends = [
            r["type"] for r in records
            if r["key"] == cell_key(cell) and r["type"] in ("finished", "failed")
        ]
        assert len(ends) == 1, (cell.spec.label, ends)


def test_cell_queue_survives_thread_stress(tmp_path):
    """8 threads (more than the cores) hammer one queue with random leases,
    commits, failures, releases and reaps; every cell still settles
    exactly once and no cell overspends its attempts."""
    import random
    import sys
    import threading

    from repro.runs import CellQueue

    cells = [tiny_cell(f"s{i}") for i in range(48)]
    payloads = {cell_key(c): execute_cell(c) for c in cells}
    retries, n_threads = 2, 8
    journal_path = tmp_path / "journal.jsonl"

    def hammer(queue, seed, deadline):
        rng, worker, held = random.Random(seed), f"t{seed}", []
        while time.monotonic() < deadline and not queue.complete():
            roll = rng.random()
            if roll < 0.4:
                lease = queue.lease(worker, rng.choice([None, 1e-4, 10.0]))
                if lease is not None:
                    held.append(lease["key"])
            elif held and roll < 0.6:
                key = held.pop(rng.randrange(len(held)))
                queue.commit(key, payloads[key], worker)
            elif held and roll < 0.85:
                queue.fail(held.pop(rng.randrange(len(held))), "boom", worker)
            elif roll < 0.93:
                queue.release(worker, "gone")
                held.clear()
            else:
                queue.reap()

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with Journal(journal_path, sweep={"experiments": []}) as journal:
            queue = CellQueue(
                cells, store=ResultStore(tmp_path / "store"), journal=journal, retries=retries
            )
            deadline = time.monotonic() + 0.5
            threads = [
                threading.Thread(target=hammer, args=(queue, i, deadline), daemon=True)
                for i in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            # Settle whatever the deadline left in flight.
            for i in range(n_threads):
                queue.release(f"t{i}", "gone")
            while (lease := queue.lease()) is not None:
                queue.commit(lease["key"], payloads[lease["key"]])
            assert queue.complete()
    finally:
        sys.setswitchinterval(switch)
    records = read_journal(journal_path)["records"]
    for key in payloads:
        ends = [r["type"] for r in records if r["key"] == key and r["type"] in ("finished", "failed")]
        assert len(ends) == 1, (key, ends)
        assert queue.attempts.get(key, 0) <= retries + 1


def test_run_cells_dedupes_identical_cells(tmp_path):
    summary = run_cells(
        [tiny_cell(), tiny_cell()], store=ResultStore(tmp_path), workers=0, timeout=None
    )
    assert summary["cells"] == 1 and summary["run"] == 1


def test_max_cells_defers_then_resume_completes(tmp_path):
    cells = [tiny_cell(f"c{i}") for i in range(3)]
    store = ResultStore(tmp_path)
    first = run_cells(cells, store=store, workers=0, timeout=None, max_cells=1)
    assert first == {**first, "run": 1, "deferred": 2, "cached": 0}
    second = run_cells(cells, store=store, workers=0, timeout=None)
    assert second == {**second, "run": 2, "deferred": 0, "cached": 1}
    third = run_cells(cells, store=store, workers=0, timeout=None)
    assert third == {**third, "run": 0, "cached": 3}


def test_force_reruns_cached_cells(tmp_path):
    store = ResultStore(tmp_path)
    run_cells([tiny_cell()], store=store, workers=0, timeout=None)
    summary = run_cells([tiny_cell()], store=store, workers=0, timeout=None, force=True)
    assert summary["cached"] == 0 and summary["run"] == 1


def test_longest_expected_first_ordering(tmp_path):
    store = ResultStore(tmp_path)
    quick, slow, unknown = tiny_cell("quick"), tiny_cell("slow"), tiny_cell("unknown")
    store.store_results(quick, quick.run(), duration_s=0.1)
    store.store_results(slow, slow.run(), duration_s=9.0)
    # force=True ignores the cache but still orders by prior duration;
    # max_cells=1 exposes the head of the priority order via the journal.
    journal_path = tmp_path / "journal.jsonl"
    with Journal(journal_path, sweep={"experiments": []}) as journal:
        run_cells(
            [quick, slow, unknown], store=store, journal=journal,
            workers=0, timeout=None, force=True, max_cells=1,
        )
    data = read_journal(journal_path)
    started = [r["key"] for r in data["records"] if r["type"] == "started"]
    assert started == [cell_key(unknown)]  # never-seen first: might be longest


# -- sweep orchestration -------------------------------------------------------


def test_sweepable_set_excludes_direct_runners():
    ids = sweepable_experiments()
    assert set(ids) >= {"F1", "F2", "T1", "T4", "T5"}
    assert set(ids).isdisjoint({"F8", "F11", "F12", "F13", "T3"})


def test_interrupted_sweep_resumes_exactly_the_remainder(tmp_path):
    out = tmp_path / "sweep"
    first = run_sweep(
        ["F1"], out=out, workers=0, timeout=None, max_cells=1, overrides=F1_OVERRIDES
    )
    assert first["cells"] == 3 and first["run"] == 1 and first["deferred"] == 2

    resumed = resume_sweep(out, timeout=None)
    assert resumed["cached"] == 1 and resumed["run"] == 2 and resumed["failed"] == 0

    # Journal-verified: the resumed segment executed exactly N - k cells.
    data = read_journal(out / "journal.jsonl")
    resume_at = next(
        i for i, r in enumerate(data["records"]) if r["type"] == "resume"
    )
    executed_after_resume = {
        r["key"]
        for r in data["records"][resume_at:]
        if r["type"] == "finished" and not r.get("cached")
    }
    assert len(executed_after_resume) == 2
    status = sweep_status(out)
    assert status["complete"] and status["pending"] == 0
    assert status["store_cells"] == 3


def test_second_identical_sweep_is_pure_cache_hits_and_bit_identical(tmp_path):
    kwargs = dict(workers=0, timeout=None, overrides=F1_OVERRIDES)
    a = run_sweep(["F1"], out=tmp_path / "a", **kwargs)
    again = run_sweep(["F1"], out=tmp_path / "a", **kwargs)
    assert a["run"] == 3 and again == {**again, "cached": 3, "run": 0}

    b = run_sweep(["F1"], out=tmp_path / "b", **kwargs)
    assert b["run"] == 3
    store_a, store_b = ResultStore(tmp_path / "a" / "store"), ResultStore(tmp_path / "b" / "store")
    assert store_a.keys() == store_b.keys() != []
    for key in store_a.keys():
        pa, pb = store_a.get(key), store_b.get(key)
        pa.pop("provenance"), pb.pop("provenance")
        pa.pop("duration_s"), pb.pop("duration_s")
        # telemetry is per-execution provenance (wall clocks, rusage), not results
        pa.pop("telemetry", None), pb.pop("telemetry", None)
        assert pa == pb  # bit-identical modulo provenance/wall-clock


def test_parallel_sweep_matches_serial(tmp_path):
    kwargs = dict(timeout=None, overrides=F1_OVERRIDES)
    serial = run_sweep(["F1"], out=tmp_path / "serial", workers=0, **kwargs)
    parallel = run_sweep(["F1"], out=tmp_path / "par", workers=2, **kwargs)
    assert serial["run"] == parallel["run"] == 3
    sa, sp = ResultStore(tmp_path / "serial" / "store"), ResultStore(tmp_path / "par" / "store")
    assert sa.keys() == sp.keys()
    for key in sa.keys():
        assert sa.get(key)["results"] == sp.get(key)["results"]


def test_sweep_rejects_unsweepable_experiment(tmp_path):
    with pytest.raises(ValueError, match="no cell decomposition"):
        run_sweep(["T3"], out=tmp_path / "bad", timeout=None)


def test_resume_requires_journalled_config(tmp_path):
    with pytest.raises((FileNotFoundError, OSError)):
        resume_sweep(tmp_path / "nowhere")


def test_render_status_table(tmp_path):
    out = tmp_path / "sweep"
    run_sweep(["F1"], out=out, workers=0, timeout=None, overrides=F1_OVERRIDES)
    text = render_status(sweep_status(out))
    assert "F1" in text and "TOTAL" in text and "complete" in text


def test_sweep_summary_written(tmp_path):
    out = tmp_path / "sweep"
    run_sweep(["F1"], out=out, workers=0, timeout=None, overrides=F1_OVERRIDES)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["experiments"] == ["F1"]
    assert summary["run"] + summary["cached"] == summary["cells"] == 3


# -- the experiment layer consumes the store -----------------------------------


def test_experiment_render_after_sweep_is_pure_cache_hits(tmp_path):
    from repro.experiments import run_experiment
    from repro.obs import HUB

    out = tmp_path / "sweep"
    run_sweep(["F1"], out=out, workers=0, timeout=None, overrides=F1_OVERRIDES)
    if HUB.active:  # residue from other modules
        HUB.disable()
    with use_store(out / "store"):
        with HUB.enabled():
            result = run_experiment("F1", **F1_OVERRIDES["F1"])
        assert HUB.counters.get("experiments.cells_cached") == 3
        assert "experiments.cells" not in HUB.counters  # nothing simulated
    assert result.experiment_id == "F1"


# -- sweep telemetry surfacing -------------------------------------------------


def test_sweep_status_surfaces_telemetry(tmp_path):
    out = tmp_path / "sweep"
    run_sweep(["F1"], out=out, workers=0, timeout=None, overrides=F1_OVERRIDES)
    status = sweep_status(out)
    telemetry = status["telemetry"]
    assert telemetry["cells_with_telemetry"] == 3
    assert telemetry["wall_s"] > 0 and telemetry["cpu_user_s"] >= 0
    # batched-backend cells bypass the scalar cache; counters fold to ints
    assert telemetry["cache_misses"] >= 0 and telemetry["cache_hits"] >= 0
    assert telemetry["rounds"] > 0
    slowest = telemetry["slowest"]
    assert 1 <= len(slowest) <= 5
    assert slowest == sorted(slowest, key=lambda s: -s["wall_s"])
    assert {"key", "experiment_id", "label", "wall_s"} <= set(slowest[0])
    text = render_status(status)
    assert "telemetry" in text and "slow" in text


def test_sweep_ships_events_and_merges_timeline(tmp_path):
    from repro.obs import cell_digest, cell_event_files

    out = tmp_path / "sweep"
    summary = run_sweep(["F1"], out=out, workers=0, timeout=None, overrides=F1_OVERRIDES)
    assert summary["timeline"]["cells"] == 3
    assert (out / "timeline.jsonl").exists()
    files = cell_event_files(out / "events")
    assert len(files) == 3
    for path in files:
        digest = cell_digest(path)
        assert digest["closed"]  # worker disabled its sink cleanly
        assert digest["last_heartbeat"] is not None  # >= 1 heartbeat per cell
    # a cached re-run executes nothing, but still refreshes the timeline
    again = run_sweep(["F1"], out=out, workers=0, timeout=None, overrides=F1_OVERRIDES)
    assert again["cached"] == 3 and again["timeline"]["cells"] == 3


def test_sweep_no_events_flag_skips_shipping(tmp_path):
    out = tmp_path / "sweep"
    summary = run_sweep(
        ["F1"], out=out, workers=0, timeout=None, overrides=F1_OVERRIDES, events=False
    )
    assert "timeline" not in summary
    assert not (out / "events").exists()
    assert not (out / "timeline.jsonl").exists()


def test_resume_reuses_journalled_events_and_profile_config(tmp_path):
    out = tmp_path / "sweep"
    run_sweep(
        ["F1"],
        out=out,
        workers=0,
        timeout=None,
        max_cells=1,
        overrides=F1_OVERRIDES,
        profile=True,
    )
    config = read_journal(out / "journal.jsonl")["meta"]["sweep"]
    assert config["events"] is True and config["profile"] is True
    resumed = resume_sweep(out, timeout=None)
    assert resumed["run"] == 2 and resumed["timeline"]["cells"] == 3
    from repro.obs import cell_event_files

    assert len(cell_event_files(out / "events")) == 3  # resume kept shipping
    assert len(list((out / "profiles").glob("*.pstats"))) == 3  # and profiling


# -- fork/spawn hygiene --------------------------------------------------------


def _probe_child_hub(queue):
    from repro.obs import HUB

    queue.put({"active": HUB.active, "has_sink": HUB._sink is not None})


@pytest.mark.skipif(not hasattr(os, "register_at_fork"), reason="needs POSIX fork hooks")
def test_forked_worker_starts_with_disarmed_hub(tmp_path):
    """A fork-started worker must never inherit the parent's enabled sink:
    anything it logged would interleave with the parent's event file."""
    import multiprocessing as mp

    from repro.obs import HUB

    if HUB.active:  # residue from other modules
        HUB.disable()
    ctx = mp.get_context("fork")
    sink = tmp_path / "parent.jsonl"
    with HUB.enabled(sink, label="parent"):
        queue = ctx.Queue()
        child = ctx.Process(target=_probe_child_hub, args=(queue,))
        child.start()
        seen = queue.get(timeout=30)
        child.join(timeout=30)
        assert seen == {"active": False, "has_sink": False}
        assert HUB.active  # the parent's hub is untouched
    # exactly one meta header and one summary: the child appended nothing
    lines = [json.loads(x) for x in sink.read_text().splitlines()]
    assert sum(1 for r in lines if r["type"] == "meta") == 1
    assert sum(1 for r in lines if r["type"] == "counters") == 1


def test_spawned_worker_starts_with_disarmed_hub(tmp_path):
    import multiprocessing as mp

    from repro.obs import HUB

    if HUB.active:
        HUB.disable()
    try:
        ctx = mp.get_context("spawn")
    except ValueError:  # pragma: no cover - platform without spawn
        pytest.skip("spawn start method unavailable")
    with HUB.enabled(tmp_path / "parent.jsonl", label="parent"):
        queue = ctx.Queue()
        child = ctx.Process(target=_probe_child_hub, args=(queue,))
        child.start()
        seen = queue.get(timeout=60)
        child.join(timeout=60)
    assert seen == {"active": False, "has_sink": False}


def test_parallel_sweep_keeps_per_cell_files_disjoint(tmp_path):
    """Each worker writes only its own cell's file — every per-cell file
    holds exactly one meta header and one clean close, fork or not."""
    from repro.obs import cell_event_files, read_events

    out = tmp_path / "sweep"
    run_sweep(["F1"], out=out, workers=2, timeout=None, overrides=F1_OVERRIDES)
    files = cell_event_files(out / "events")
    assert len(files) == 3
    for path in files:
        records, bad = read_events(path)
        assert bad == 0
        metas = [r for r in records if r["type"] == "meta"]
        assert len(metas) == 1  # no interleaving from another process
        assert sum(1 for r in records if r["type"] == "counters") == 1


# -- live dashboard ------------------------------------------------------------


def test_watch_snapshot_and_render_after_completion(tmp_path):
    from repro.runs import render_watch, sweep_snapshot, watch

    out = tmp_path / "sweep"
    run_sweep(["F1"], out=out, workers=0, timeout=None, overrides=F1_OVERRIDES)
    snapshot = sweep_snapshot(out)
    assert snapshot["complete"] and snapshot["total"] == snapshot["done"] == 3
    assert snapshot["counts"] == {"finished": 3, "failed": 0, "running": 0, "pending": 0}
    assert snapshot["eta_s"] is None  # nothing remaining
    text = render_watch(snapshot)
    assert "complete" in text and "3/3 cells" in text
    assert "slowest finished cells" in text

    frames = []
    assert watch(out, once=True, _print=frames.append) == 0
    assert frames and "sweep watch" in frames[0]


def test_watch_snapshot_mid_flight(tmp_path):
    """A snapshot taken while a worker is mid-cell: journal says started,
    the event file supplies heartbeat age and round progress — even with
    the latest line torn by the in-flight write."""
    import json as _json

    from repro.runs import render_watch, sweep_snapshot

    out = tmp_path / "sweep"
    key_run, key_pend = "c" * 32, "d" * 32
    with Journal(out / "journal.jsonl", sweep={"workers": 2}) as journal:
        for key in (key_run, key_pend):
            journal.append("scheduled", key=key, experiment_id="F1", label=f"n={key[0]}")
        journal.append("started", key=key_run, experiment_id="F1", label="n=c")

    events = out / "events"
    events.mkdir()
    base_t = 1_000.0
    with (events / f"cell-{key_run}.jsonl").open("w") as fh:
        fh.write(_json.dumps({"type": "meta", "t": base_t, "meta": {"label": "n=c"}}) + "\n")
        fh.write(
            _json.dumps(
                {"type": "cell.progress", "t": base_t + 4.0, "round": 25, "max_rounds": 100}
            )
            + "\n"
        )
        fh.write(_json.dumps({"type": "cell.heartbeat", "t": base_t + 5.0, "round": 26}) + "\n")
        fh.write('{"type": "round", "t": 10')  # torn in-flight line

    snapshot = sweep_snapshot(out, now=base_t + 7.0)
    assert snapshot["counts"]["running"] == 1 and snapshot["counts"]["pending"] == 1
    assert not snapshot["complete"]
    running = next(c for c in snapshot["cells"] if c["state"] == "running")
    assert running["heartbeat_age"] == pytest.approx(2.0)
    assert running["progress"] == pytest.approx(0.25)
    assert running["rounds"] == 25
    text = render_watch(snapshot)
    assert "running cells" in text and "n=c" in text


def test_watch_flags_failures_and_returns_nonzero(tmp_path):
    from repro.runs import watch

    out = tmp_path / "sweep"
    with Journal(out / "journal.jsonl", sweep={"workers": 1}) as journal:
        journal.append("scheduled", key="e" * 32, experiment_id="F1", label="boom")
        journal.append("failed", key="e" * 32, experiment_id="F1", label="boom", error="X")

    frames = []
    assert watch(out, once=True, _print=frames.append) == 1
    assert "failed cells" in frames[0] and "boom" in frames[0]


def test_watch_requires_a_journal(tmp_path):
    from repro.runs import sweep_snapshot

    with pytest.raises((FileNotFoundError, OSError)):
        sweep_snapshot(tmp_path / "nowhere")


# -- the 2-worker speedup claim (needs real cores) -----------------------------


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@pytest.mark.stress
@pytest.mark.skipif(_usable_cpus() < 2, reason="needs >= 2 usable CPU cores")
def test_two_workers_measurably_faster_on_multicore():
    from repro.bench import _runs_cell

    cell = _runs_cell(n=4096, m=64, max_rounds=128, reps=4, repeats=1)
    assert cell["speedup_2w"] > 1.1
