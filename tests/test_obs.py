"""Telemetry hub, provenance stamps, trend renderer and trace report.

Covers the observability subsystem's contracts: the disabled hub is a
no-op (shared null span, nothing recorded), enable/disable bracket a
well-formed ``obs-events/v1`` JSONL file, span aggregates nest and sum
correctly, provenance stamps carry the pinned fields, and the two CLI-
facing renderers (``trend``, ``trace-report``) work on real payloads.
The frozen-format tests pin the ``obs-events/v1`` and ``bench-engine/v2``
schema fields so accidental renames fail loudly here rather than in a
consumer parsing last month's artifact.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.obs import (
    HUB,
    OBS_EVENTS_SCHEMA,
    PROVENANCE_FIELDS,
    git_sha,
    load_bench_artifacts,
    provenance_stamp,
    render_report,
    render_trend,
    summarize_events,
    trend_rows,
)
from repro.obs.hub import _NULL_SPAN


@pytest.fixture(autouse=True)
def _hub_clean():
    """Every test starts with a disabled, empty hub (aggregates survive
    disable() by design, so residue from other modules must be cleared)."""
    if HUB.active:
        HUB.disable()
    HUB.counters = {}
    HUB.gauges = {}
    HUB.span_stats = {}
    HUB.ring.clear()
    yield
    if HUB.active:
        HUB.disable()


# -- disabled hub is a no-op -------------------------------------------------


def test_disabled_hub_records_nothing():
    assert not HUB.active
    HUB.count("x")
    HUB.gauge("g", 1.0)
    HUB.event("e", {"k": 1})
    with HUB.span("s"):
        pass
    assert HUB.counters == {}
    assert HUB.gauges == {}
    assert HUB.span_stats == {}
    assert len(HUB.ring) == 0


def test_disabled_span_is_shared_null_object():
    # The hot-path contract: no allocation while disabled.
    assert HUB.span("a") is _NULL_SPAN
    assert HUB.span("b") is _NULL_SPAN


def test_engine_run_with_disabled_hub_is_clean(small_uniform):
    from repro.registry import build_protocol
    from repro.sim.engine import run

    result = run(small_uniform, build_protocol("qos-sampling"), seed=0, initial="pile")
    assert result.status == "satisfying"
    assert HUB.counters == {}


# -- enable / disable lifecycle ----------------------------------------------


def test_enable_twice_raises():
    HUB.enable()
    with pytest.raises(RuntimeError):
        HUB.enable()
    HUB.disable()


def test_disable_when_disabled_is_noop():
    assert HUB.disable() is None


def test_enable_resets_previous_run():
    with HUB.enabled():
        HUB.count("x", 5)
    assert HUB.counters["x"] == 5  # aggregates survive disable for reading
    with HUB.enabled():
        assert "x" not in HUB.counters
        HUB.count("y")
    assert "y" in HUB.counters


def test_counters_gauges_and_ring():
    with HUB.enabled(ring_size=4):
        HUB.count("moves")
        HUB.count("moves", 2)
        HUB.gauge("clock", 3.5)
        for i in range(10):
            HUB.event("tick", {"i": i})
        assert HUB.counters["moves"] == 3
        assert HUB.gauges["clock"] == 3.5
        assert len(HUB.ring) == 4  # bounded
        assert HUB.ring[-1]["i"] == 9


# -- deterministic sampling ----------------------------------------------------


def test_tick_samples_every_nth_occurrence():
    with HUB.enabled(sample_rate=4):
        fired = [HUB.tick("round") for _ in range(12)]
    assert fired == [True, False, False, False] * 3  # first of each window fires
    assert sum(fired) == 3


def test_tick_rate_one_always_fires_and_counters_unaffected():
    with HUB.enabled():
        assert all(HUB.tick("round") for _ in range(5))
        HUB.count("moves", 7)
    assert HUB.counters["moves"] == 7


def test_tick_counts_per_name_independently():
    with HUB.enabled(sample_rate=2):
        a = [HUB.tick("a") for _ in range(4)]
        b = [HUB.tick("b") for _ in range(3)]
    assert a == [True, False, True, False]
    assert b == [True, False, True]


def test_enable_rejects_bad_sample_rate():
    with pytest.raises(ValueError):
        HUB.enable(sample_rate=0)
    assert not HUB.active


def test_sampled_run_emits_fewer_round_events(small_uniform):
    """The engine's per-round event stream thins by the configured rate."""
    from repro.registry import build_protocol
    from repro.sim.engine import run

    def round_events():
        return [e for e in HUB.ring if e.get("type") == "round"]

    with HUB.enabled():
        run(small_uniform, build_protocol("qos-sampling"), seed=3, initial="pile")
        full = len(round_events())
    with HUB.enabled(sample_rate=4):
        run(small_uniform, build_protocol("qos-sampling"), seed=3, initial="pile")
        sampled = len(round_events())
    assert full >= 1
    assert sampled == (full + 3) // 4  # ceil(full / rate): first round always fires


# -- spans --------------------------------------------------------------------


def test_span_nesting_aggregates():
    with HUB.enabled():
        with HUB.span("outer"):
            for _ in range(3):
                with HUB.span("inner"):
                    time.sleep(0.001)
    snap = HUB.snapshot()
    assert snap["spans"]["outer"]["count"] == 1
    assert snap["spans"]["inner"]["count"] == 3
    assert snap["spans"]["inner"]["total"] >= 0.003
    # children are contained in the parent
    assert snap["spans"]["outer"]["total"] >= snap["spans"]["inner"]["total"]
    assert snap["spans"]["inner"]["max"] <= snap["spans"]["inner"]["total"]


def test_only_toplevel_spans_emit_events():
    with HUB.enabled():
        with HUB.span("outer"):
            with HUB.span("inner"):
                pass
    span_events = [r for r in HUB.ring if r["type"] == "span"]
    assert [e["name"] for e in span_events] == ["outer"]
    # ... but both appear in the aggregates.
    assert set(HUB.span_stats) == {"outer", "inner"}


# -- JSONL sink & obs-events/v1 schema ----------------------------------------


def _run_instrumented(tmp_path, small_uniform):
    from repro.registry import build_protocol
    from repro.sim.engine import run

    path = tmp_path / "events.jsonl"
    with HUB.enabled(path, label="test-run"):
        run(small_uniform, build_protocol("qos-sampling"), seed=0, initial="pile")
    return path


def test_jsonl_sink_wellformed(tmp_path, small_uniform):
    path = _run_instrumented(tmp_path, small_uniform)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    assert all("type" in r and "t" in r for r in lines)
    header = lines[0]
    assert header["type"] == "meta"
    assert header["schema"] == OBS_EVENTS_SCHEMA
    assert header["meta"]["label"] == "test-run"
    # final summary lines, in order
    assert lines[-2]["type"] == "counters"
    assert lines[-1]["type"] == "spans"
    assert "engine.run" in lines[-1]["spans"]
    assert lines[-2]["counters"]["engine.runs"] == 1


def test_frozen_obs_events_schema(tmp_path, small_uniform):
    """Pin the obs-events/v1 field names — renames break consumers."""
    assert OBS_EVENTS_SCHEMA == "obs-events/v1"
    path = _run_instrumented(tmp_path, small_uniform)
    lines = [json.loads(l) for l in path.read_text().splitlines()]
    header = lines[0]
    assert set(header) >= {"type", "t", "schema", "provenance", "meta"}
    for f in PROVENANCE_FIELDS:
        assert f in header["provenance"]
    round_events = [r for r in lines if r["type"] == "round"]
    assert round_events, "engine must emit per-round events"
    assert set(round_events[0]) >= {
        "type",
        "t",
        "round",
        "moved",
        "attempted",
        "messages",
        "unsatisfied",
    }
    run_events = [r for r in lines if r["type"] == "run"]
    assert len(run_events) == 1
    assert set(run_events[0]) >= {"status", "rounds", "moves", "messages", "protocol"}
    spans_line = lines[-1]["spans"]
    for name, agg in spans_line.items():
        assert set(agg) == {"count", "total", "max"}


def test_engine_counters_match_result(tmp_path, small_uniform):
    from repro.registry import build_protocol
    from repro.sim.engine import run

    with HUB.enabled():
        result = run(
            small_uniform, build_protocol("qos-sampling"), seed=0, initial="pile"
        )
    assert HUB.counters["engine.runs"] == 1
    assert HUB.counters["engine.moves"] == result.total_moves
    assert HUB.counters["engine.messages"] == result.total_messages
    assert HUB.counters["state.cache_hits"] >= 0
    assert HUB.counters["state.cache_misses"] > 0


def test_msgsim_instrumentation(small_uniform):
    from repro.msgsim.runner import run_message_sim

    with HUB.enabled():
        result = run_message_sim(small_uniform, seed=0, max_time=500.0)
    assert HUB.counters["msgsim.runs"] == 1
    assert HUB.counters["msgsim.messages"] == result.total_messages
    assert HUB.counters["msgsim.events_delivered"] > 0
    assert HUB.gauges["msgsim.clock"] == result.time
    assert "msgsim.run" in HUB.span_stats
    assert "msgsim.deliver" in HUB.span_stats


def test_replicate_instrumentation():
    from repro.sim.parallel import RunSpec, replicate

    spec = RunSpec(
        generator="uniform_slack",
        generator_kwargs={"n": 32, "m": 4, "slack": 0.3},
        initial="pile",
        max_rounds=500,
    )
    with HUB.enabled():
        replicate(spec, 3, base_seed=0, workers=0, backend="serial")
    assert HUB.counters["parallel.replications"] == 3
    assert HUB.counters["engine.runs"] == 3  # serial path nests engine spans
    assert HUB.span_stats["parallel.replicate"][0] == 1

    # The batched engine is one vectorized call, not nested engine spans:
    # replicate-level telemetry only, with the backend recorded on the event.
    with HUB.enabled():
        replicate(spec, 3, base_seed=0, backend="batched")
    assert HUB.counters["parallel.replications"] == 3
    assert "engine.runs" not in HUB.counters
    events = [e for e in HUB.ring if e["type"] == "replicate"]
    assert events and events[-1]["backend"] == "batched"


# -- provenance ----------------------------------------------------------------


def test_provenance_stamp_fields():
    stamp = provenance_stamp(spec_seed_key="abc")
    for f in PROVENANCE_FIELDS:
        assert f in stamp
    assert stamp["spec_seed_key"] == "abc"
    assert isinstance(stamp["created_unix"], float)
    assert stamp["git_sha"] == git_sha()


def test_provenance_extra_collision_raises():
    with pytest.raises(ValueError):
        provenance_stamp(git_sha="spoofed")


def test_trace_carries_provenance(small_uniform):
    from repro.registry import build_protocol
    from repro.sim.engine import run
    from repro.sim.trace import Trace

    result = run(small_uniform, build_protocol("qos-sampling"), seed=0, initial="pile")
    trace = Trace.from_runs({"generator": "fixture"}, [result])
    prov = trace.meta["provenance"]
    for f in PROVENANCE_FIELDS:
        assert f in prov
    assert "spec_seed_key" in prov


# -- bench payload & frozen bench-engine/v2 schema -----------------------------


def test_frozen_bench_engine_schema(bench_payload):
    import math

    payload, _ = bench_payload
    assert payload["schema"] == "bench-engine/v2"
    assert set(payload) >= {
        "schema",
        "created_unix",
        "scale",
        "seed",
        "python",
        "numpy",
        "platform",
        "provenance",
        "cells",
    }
    for f in PROVENANCE_FIELDS:
        assert f in payload["provenance"]
    for cell in payload["cells"]:
        # every cell is self-describing: a finite numeric headline of its
        # own, a unit, a direction, and at least one timed leg
        assert set(cell) >= {"kind", "name", "headline", "unit", "higher_is_better", "legs"}
        value = cell[cell["headline"]]
        assert isinstance(value, (int, float)) and not isinstance(value, bool)
        assert math.isfinite(value), cell["name"]
        assert isinstance(cell["higher_is_better"], bool)
        assert cell["legs"]
        for leg in cell["legs"].values():
            assert set(leg) >= {"seconds", "cpu_seconds"}
    kinds = {c["kind"] for c in payload["cells"]}
    assert kinds == {
        "engine",
        "replicate",
        "batched",
        "hybrid",
        "query",
        "runs",
        "obs",
        "aggregate",
    }
    engine = next(c for c in payload["cells"] if c["kind"] == "engine")
    assert set(engine) >= {"name", "seconds", "rounds", "rounds_per_sec", "status"}
    batched = next(c for c in payload["cells"] if c["kind"] == "batched")
    assert set(batched) >= {
        "name",
        "serial_cell",
        "reps",
        "seconds",
        "serial_seconds",
        "user_rounds_per_sec",
        "serial_user_rounds_per_sec",
        "speedup_vs_serial",
    }
    hybrid = next(c for c in payload["cells"] if c["kind"] == "hybrid")
    assert set(hybrid) >= {
        "name",
        "reps",
        "workers",
        "seconds",
        "pool_seconds",
        "batched_seconds",
        "user_rounds_per_sec",
        "speedup_vs_pool",
        "speedup_vs_batched",
    }
    runs = next(c for c in payload["cells"] if c["kind"] == "runs")
    assert set(runs) >= {
        "name",
        "cells",
        "cpus",
        "seconds",
        "seconds_2w",
        "speedup_2w",
        "batched_seconds",
        "speedup_batched",
        "cached_seconds",
        "cached_cells",
    }
    obs = next(c for c in payload["cells"] if c["kind"] == "obs")
    assert set(obs) >= {
        "name",
        "enabled_rounds_per_sec",
        "disabled_rounds_per_sec",
        "overhead_pct",
        "per_round_cost_enabled_us",
        "per_round_cost_disabled_us",
        "per_round_cost_sampled_us",
        "sample_rate",
        "overhead_pct_sampled",
        "cache_hits",
        "cache_misses",
    }


def test_obs_cell_within_budget(bench_payload):
    """The acceptance budget: enabled telemetry costs <= 5% of a round."""
    payload, _ = bench_payload
    obs = next(c for c in payload["cells"] if c["kind"] == "obs")
    assert obs["overhead_pct"] <= 5.0
    assert obs["per_round_cost_enabled_us"] < 25.0  # absolute sanity bound
    assert obs["cache_misses"] > 0  # the instrumented run exercised the cache
    # Sampled mode must stay within the same budget (it does strictly less
    # work per round than full capture) and carry its configured rate.
    assert obs["sample_rate"] > 1
    assert obs["overhead_pct_sampled"] <= 5.0
    assert obs["per_round_cost_sampled_us"] < 25.0


def test_bench_runs_cell_cached_rerun_is_free(bench_payload):
    """The sweep-overhead cell: a fully-cached re-run skips all execution."""
    payload, _ = bench_payload
    runs = next(c for c in payload["cells"] if c["kind"] == "runs")
    assert runs["cached_cells"] == runs["cells"]  # second pass was 100% hits
    assert runs["cached_seconds"] < runs["seconds"]  # and far cheaper than running


# -- trend renderer ------------------------------------------------------------


def _synthetic_bench(path, created, rps):
    payload = {
        "schema": "bench-engine/v2",
        "created_unix": created,
        "scale": "smoke",
        "seed": 0,
        "python": "3",
        "numpy": "2",
        "platform": "test",
        "provenance": {},
        "cells": [
            {
                "kind": "engine",
                "name": "unit/sampling/sync",
                "headline": "rounds_per_sec",
                "unit": "rounds/s",
                "higher_is_better": True,
                "legs": {"run": {"seconds": 0.1, "cpu_seconds": 0.1}},
                "seconds": 0.1,
                "rounds": 10,
                "rounds_per_sec": rps,
                "status": "satisfying",
            },
            {
                "kind": "query",
                "name": "query/satisfied_mask",
                "headline": "cache_speedup",
                "unit": "x speedup",
                "higher_is_better": True,
                "legs": {
                    "cached": {"seconds": 0.01, "cpu_seconds": 0.01},
                    "uncached": {"seconds": 0.2, "cpu_seconds": 0.2},
                },
                "cache_speedup": 20.0,
            },
        ],
    }
    path.write_text(json.dumps(payload))
    return path


def test_trend_over_synthetic_series(tmp_path):
    a = _synthetic_bench(tmp_path / "a.json", 100.0, 1000.0)
    b = _synthetic_bench(tmp_path / "b.json", 200.0, 1500.0)
    payloads = load_bench_artifacts([b, a])  # passed out of order
    assert [p["created_unix"] for p in payloads] == [100.0, 200.0]
    rows = trend_rows(payloads)
    engine_row = next(r for r in rows if r["name"] == "unit/sampling/sync")
    assert engine_row["series"] == [1000.0, 1500.0]
    text = render_trend([a, b])
    assert "unit/sampling/sync" in text
    assert "+50.0%" in text
    assert "2 artifact(s)" in text


def test_trend_rejects_wrong_schema(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "something-else", "cells": []}))
    with pytest.raises(ValueError):
        load_bench_artifacts([bad])
    # v1 artifacts carry no headline declarations: fail loudly, say how to fix
    old = tmp_path / "v1.json"
    old.write_text(json.dumps({"schema": "bench-engine/v1", "cells": []}))
    with pytest.raises(ValueError, match="regenerate"):
        load_bench_artifacts([old])


def test_trend_reads_headline_from_newest_declaration(tmp_path):
    a = _synthetic_bench(tmp_path / "a.json", 100.0, 1000.0)
    payload = json.loads(a.read_text())
    payload["created_unix"] = 200.0
    engine = payload["cells"][0]
    engine.update(headline="seconds", unit="s", higher_is_better=False)
    b = tmp_path / "b.json"
    b.write_text(json.dumps(payload))
    row = next(r for r in trend_rows(load_bench_artifacts([a, b])) if r["kind"] == "engine")
    assert (row["metric"], row["unit"], row["higher_is_better"]) == ("seconds", "s", False)
    assert row["series"] == [0.1, 0.1]


def test_trend_handles_missing_cells(tmp_path):
    a = _synthetic_bench(tmp_path / "a.json", 100.0, 1000.0)
    payload = json.loads(a.read_text())
    payload["cells"] = payload["cells"][:1]  # drop the query cell
    payload["created_unix"] = 50.0
    older = tmp_path / "older.json"
    older.write_text(json.dumps(payload))
    rows = trend_rows(load_bench_artifacts([a, older]))
    query_row = next(r for r in rows if r["kind"] == "query")
    import math

    assert math.isnan(query_row["series"][0])
    assert query_row["series"][1] == 20.0


# -- trace report --------------------------------------------------------------


def test_trace_report_on_real_run(tmp_path, small_uniform):
    path = _run_instrumented(tmp_path, small_uniform)
    summary = summarize_events(path)
    assert summary["complete"]
    assert summary["counters"]["engine.runs"] == 1
    assert "engine.run" in summary["spans"]
    text = render_report(summary)
    assert "trace report" in text
    assert "engine.round" in text
    assert "counter totals" in text
    assert "rounds observed" in text


def test_trace_report_truncated_log_rebuilds(tmp_path, small_uniform):
    path = _run_instrumented(tmp_path, small_uniform)
    lines = path.read_text().splitlines()
    truncated = tmp_path / "truncated.jsonl"
    # cut before the final counters/spans summary lines
    truncated.write_text("\n".join(lines[:-2]) + "\n")
    summary = summarize_events(truncated)
    assert not summary["complete"]
    assert summary["spans"]  # rebuilt from raw span events
    text = render_report(summary)
    assert "truncated log" in text


def test_trace_report_rejects_non_obs_file(tmp_path):
    other = tmp_path / "other.jsonl"
    other.write_text(json.dumps({"type": "x", "t": 0}) + "\n")
    with pytest.raises(ValueError):
        summarize_events(other)


# -- aggregate: per-cell event files -> sweep timeline -------------------------


KEY_A = "a" * 32
KEY_B = "b" * 32


def _write_cell_file(events_dir, key, records, torn=False):
    events_dir.mkdir(parents=True, exist_ok=True)
    path = events_dir / f"cell-{key}.jsonl"
    with path.open("w") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
        if torn:
            fh.write('{"type": "round", "t": 9.0, "trunc')  # killed mid-write
    return path


def _closed_cell_records(label, base_t):
    return [
        {"type": "meta", "t": base_t, "schema": OBS_EVENTS_SCHEMA, "meta": {"label": label}},
        {"type": "cell.heartbeat", "t": base_t + 1.0, "round": 5, "unsatisfied": 3},
        {"type": "cell.progress", "t": base_t + 2.0, "round": 9, "max_rounds": 100},
        {"type": "counters", "t": base_t + 3.0, "counters": {"engine.rounds": 9}},
        {"type": "spans", "t": base_t + 3.0, "spans": {}},
    ]


def test_merge_events_sorts_annotates_and_tolerates_torn_lines(tmp_path):
    from repro.obs import TIMELINE_NAME, merge_events

    events_dir = tmp_path / "events"
    _write_cell_file(events_dir, KEY_A, _closed_cell_records("cell-a", 10.0), torn=True)
    _write_cell_file(
        events_dir,
        KEY_B,
        [
            {"type": "meta", "t": 10.5, "schema": OBS_EVENTS_SCHEMA, "meta": {"label": "cell-b"}},
            {"type": "cell.heartbeat", "t": 11.5, "round": 2, "unsatisfied": 7},
        ],
    )
    summary = merge_events(events_dir)
    assert summary == {
        "out": str(tmp_path / TIMELINE_NAME),
        "cells": 2,
        "records": 7,
        "bad_lines": 1,
    }
    lines = [json.loads(line) for line in (tmp_path / TIMELINE_NAME).read_text().splitlines()]
    header, records = lines[0], lines[1:]
    assert header["schema"] == OBS_EVENTS_SCHEMA
    assert header["meta"]["timeline"] is True
    assert header["meta"]["cells"] == [KEY_A, KEY_B]
    assert header["meta"]["bad_lines"] == 1
    assert all(r["cell"] in (KEY_A, KEY_B) for r in records)
    stamps = [(r["t"], r["cell"]) for r in records]
    assert stamps == sorted(stamps)  # wall-clock order, key tie-break
    assert not list(tmp_path.glob("*.tmp"))  # atomic: no partial file left


def test_merge_events_is_safe_on_empty_or_missing_dir(tmp_path):
    from repro.obs import merge_events

    summary = merge_events(tmp_path / "events")  # never created
    assert summary["cells"] == 0 and summary["records"] == 0
    # the timeline still exists with a well-formed header
    header = json.loads((tmp_path / "timeline.jsonl").read_text().splitlines()[0])
    assert header["meta"]["cells"] == []


def test_cell_digest_distinguishes_closed_from_live(tmp_path):
    from repro.obs import cell_digest

    events_dir = tmp_path / "events"
    closed = _write_cell_file(events_dir, KEY_A, _closed_cell_records("cell-a", 10.0))
    live = _write_cell_file(
        events_dir,
        KEY_B,
        [
            {"type": "meta", "t": 20.0, "schema": OBS_EVENTS_SCHEMA, "meta": {"label": "cell-b"}},
            {"type": "cell.heartbeat", "t": 21.0, "round": 2, "unsatisfied": 7},
        ],
        torn=True,
    )
    a = cell_digest(closed)
    assert a["cell"] == KEY_A and a["closed"] and a["label"] == "cell-a"
    assert a["last_heartbeat"]["round"] == 5
    assert a["last_progress"]["max_rounds"] == 100
    assert (a["first_t"], a["last_t"]) == (10.0, 13.0)
    b = cell_digest(live)
    assert not b["closed"] and b["last_t"] == 21.0 and b["bad_lines"] == 1


# -- obs-events/v1 forward compatibility ---------------------------------------


def test_readers_skip_unknown_future_event_kinds(tmp_path, small_uniform):
    """Additive schema: records of kinds this version never wrote must be
    carried through (merge) and digested around (digest, report), never
    crash a reader."""
    from repro.obs import cell_digest, merge_events, read_events

    future = {"type": "cell.gpu_util/v9", "t": 12.5, "util": 0.87, "device": ["cuda:0"]}
    events_dir = tmp_path / "events"
    path = _write_cell_file(
        events_dir, KEY_A, _closed_cell_records("cell-a", 10.0)[:3] + [future]
    )
    records, bad = read_events(path)
    assert bad == 0 and future["type"] in {r["type"] for r in records}
    digest = cell_digest(path)
    assert digest["last_t"] == 12.5  # unknown kinds still date liveness
    assert not digest["closed"]
    summary = merge_events(events_dir)
    assert summary["records"] == 4  # carried through, not dropped
    merged = [json.loads(x) for x in (tmp_path / "timeline.jsonl").read_text().splitlines()]
    assert any(r.get("type") == "cell.gpu_util/v9" for r in merged)

    # trace-report over a real run with an injected future kind still sums
    run_file = _run_instrumented(tmp_path, small_uniform)
    lines = run_file.read_text().splitlines()
    lines.insert(2, json.dumps(future))
    spiked = tmp_path / "spiked.jsonl"
    spiked.write_text("\n".join(lines) + "\n")
    report = summarize_events(spiked)
    assert report["complete"]
    assert report["counters"]["engine.runs"] == 1


# -- perf-regression gate ------------------------------------------------------


def test_gate_flags_20pct_regression(tmp_path):
    from repro.obs import GATE_SCHEMA, gate, render_gate

    a = _synthetic_bench(tmp_path / "a.json", 100.0, 1000.0)
    b = _synthetic_bench(tmp_path / "b.json", 200.0, 780.0)  # 22% throughput drop
    result = gate([a, b])
    assert result["schema"] == GATE_SCHEMA == "bench-gate/v1"
    assert result["verdict"] == "regressed"
    assert result["regressed"] == ["unit/sampling/sync"]
    assert result["candidate"] == str(b)
    cell = next(c for c in result["cells"] if c["name"] == "unit/sampling/sync")
    assert cell["ratio"] == pytest.approx(0.78)
    text = render_gate(result)
    assert "REGRESSED" in text and "unit/sampling/sync" in text


def test_gate_ok_on_unchanged_history(tmp_path):
    from repro.obs import gate

    a = _synthetic_bench(tmp_path / "a.json", 100.0, 1000.0)
    b = _synthetic_bench(tmp_path / "b.json", 200.0, 1000.0)
    result = gate([a, b])
    assert result["verdict"] == "ok" and result["regressed"] == []
    # small wiggle inside the default 10% band is also ok
    c = _synthetic_bench(tmp_path / "c.json", 300.0, 950.0)
    assert gate([a, b, c])["verdict"] == "ok"
    # a big jump upward is improvement, not regression
    d = _synthetic_bench(tmp_path / "d.json", 400.0, 1500.0)
    up = gate([a, b, d])
    assert up["verdict"] == "ok" and "unit/sampling/sync" in up["improved"]


def _huge_bench(path, created, peak):
    """A v2 payload holding one memory-headlined million-user cell."""
    payload = json.loads(_synthetic_bench(path, created, 1000.0).read_text())
    payload["cells"] = [
        {
            "kind": "huge",
            "name": "engine/huge/sampling/sync",
            "headline": "peak_traced_bytes",
            "unit": "B",
            "higher_is_better": False,
            "legs": {"run": {"seconds": 2.0, "cpu_seconds": 2.0}},
            "seconds": 2.0,
            "peak_traced_bytes": peak,
        }
    ]
    path.write_text(json.dumps(payload))
    return path


def test_gate_lower_is_better_headline_rising_regresses(tmp_path):
    from repro.obs import gate

    # same wall-clock, 20% more traced memory: the declared headline decides
    a = _huge_bench(tmp_path / "a.json", 100.0, 80_000_000)
    b = _huge_bench(tmp_path / "b.json", 200.0, 96_000_000)
    result = gate([a, b])
    assert result["verdict"] == "regressed"
    assert result["regressed"] == ["engine/huge/sampling/sync"]
    (cell,) = result["cells"]
    assert cell["metric"] == "peak_traced_bytes" and cell["higher_is_better"] is False
    assert cell["ratio"] == pytest.approx(80 / 96)


def test_gate_lower_is_better_headline_falling_improves(tmp_path):
    from repro.obs import gate

    a = _huge_bench(tmp_path / "a.json", 100.0, 80_000_000)
    b = _huge_bench(tmp_path / "b.json", 200.0, 60_000_000)
    result = gate([a, b])
    assert result["verdict"] == "ok"
    assert result["improved"] == ["engine/huge/sampling/sync"]
    assert result["cells"][0]["verdict"] == "improved"


def test_gate_noisy_baseline_widens_band(tmp_path):
    from repro.obs import gate

    # baseline rel-std ~18% -> effective band ~54%, so a 25% drop is ok
    paths = [
        _synthetic_bench(tmp_path / f"{i}.json", float(i), rps)
        for i, rps in enumerate([800.0, 1000.0, 1200.0])
    ]
    paths.append(_synthetic_bench(tmp_path / "cand.json", 10.0, 750.0))
    result = gate(paths)
    cell = next(c for c in result["cells"] if c["name"] == "unit/sampling/sync")
    assert cell["band"] > 0.10
    assert cell["verdict"] == "ok"


def test_gate_holes_nans_and_zero_centers_do_not_crash(tmp_path):
    from repro.obs import gate

    # hole: the query cell is missing from the candidate -> no-data
    a = _synthetic_bench(tmp_path / "a.json", 100.0, 1000.0)
    payload = json.loads(a.read_text())
    payload["created_unix"] = 200.0
    payload["cells"] = [c for c in payload["cells"] if c["kind"] == "engine"]
    hole = tmp_path / "hole.json"
    hole.write_text(json.dumps(payload))
    result = gate([a, hole])
    query = next(c for c in result["cells"] if c["kind"] == "query")
    assert query["verdict"] == "no-data"
    assert result["verdict"] == "ok"  # missing data is not a regression

    # zero-throughput baseline admits no ratio -> no-baseline
    z0 = _synthetic_bench(tmp_path / "z0.json", 100.0, 0.0)
    z1 = _synthetic_bench(tmp_path / "z1.json", 200.0, 500.0)
    zero = gate([z0, z1])
    engine = next(c for c in zero["cells"] if c["kind"] == "engine")
    assert engine["verdict"] == "no-baseline"

    # single artifact: everything is no-baseline, overall ok
    solo = gate([a])
    assert solo["verdict"] == "ok"
    assert {c["verdict"] for c in solo["cells"]} == {"no-baseline"}


def test_trend_renders_gap_markers_for_holes(tmp_path):
    a = _synthetic_bench(tmp_path / "a.json", 100.0, 1000.0)
    payload = json.loads(a.read_text())
    payload["created_unix"] = 50.0
    payload["cells"] = [c for c in payload["cells"] if c["kind"] == "engine"]
    older = tmp_path / "older.json"
    older.write_text(json.dumps(payload))
    text = render_trend([a, older])
    line = next(ln for ln in text.splitlines() if "query/satisfied_mask" in ln)
    assert "·" in line  # hole-punched history renders a gap, not a crash


# -- profile report ------------------------------------------------------------


def _dump_profile(path):
    import cProfile

    profile = cProfile.Profile()
    profile.enable()
    json.dumps({"k": list(range(200))})
    sorted(range(500), key=lambda x: -x)
    profile.disable()
    profile.dump_stats(path)
    return path


def test_profile_rows_fold_and_rank(tmp_path):
    from repro.obs import profile_rows, render_profiles

    one = _dump_profile(tmp_path / "cell-aa.pstats")
    rows = profile_rows(one, top=5)
    assert 0 < len(rows) <= 5
    for row in rows:
        assert set(row) >= {"function", "location", "ncalls", "tottime", "cumtime"}
    assert rows == sorted(rows, key=lambda r: -r["cumtime"])

    # directory mode folds every .pstats into one ranking
    _dump_profile(tmp_path / "cell-bb.pstats")
    folded = profile_rows(tmp_path, top=5)
    assert folded and folded[0]["ncalls"] >= rows[0]["ncalls"]
    text = render_profiles(tmp_path, top=5)
    assert "cumtime" in text and "dumps" in text


def test_profile_rows_on_missing_path_raises(tmp_path):
    from repro.obs import profile_rows

    with pytest.raises((FileNotFoundError, ValueError)):
        profile_rows(tmp_path / "nope.pstats")


# -- bench aggregate cell ------------------------------------------------------


def test_frozen_bench_aggregate_cell(bench_payload):
    payload, _ = bench_payload
    agg = next(c for c in payload["cells"] if c["kind"] == "aggregate")
    assert set(agg) >= {
        "name",
        "cells",
        "records",
        "bad_lines",
        "seconds",
        "events_per_sec",
        "per_event_cost_us",
    }
    assert agg["name"] == "obs/aggregate"
    assert agg["cells"] == 200 and agg["records"] > agg["cells"]
    assert agg["bad_lines"] == 1  # the injected torn line is tolerated on the timed path


def test_aggregate_cell_within_budget(bench_payload):
    """Merging must stay cheap enough to run after every sweep: <= 50us/event."""
    payload, _ = bench_payload
    agg = next(c for c in payload["cells"] if c["kind"] == "aggregate")
    assert agg["per_event_cost_us"] <= 50.0
    assert agg["events_per_sec"] > 0
