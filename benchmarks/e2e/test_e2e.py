"""Tests of the end-to-end benchmark itself (not of the program).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
from spans import Span, self_times, union_length

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run_bench(*args: str) -> dict:
    """Run ``run.py`` and return the JSON object on its last stdout line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_counts():
    e2e, layers = BENCH["end_to_end"], BENCH["per_layer"]
    names = [m["name"] for m in e2e + layers]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert all(UNIT.fullmatch(m["unit"]) for m in e2e + layers)
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in e2e)
    assert [w["name"] for w in BENCH["workloads"]] == [
        "replicate", "single-large", "sweep", "sweep-net"]


def test_smoke_run_emits_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    last = run_bench("--smoke", "--trace", "1", "--out", str(out))
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    results = json.loads(out.read_text())["workloads"]
    assert list(results) == [w["name"] for w in BENCH["workloads"]]
    for report in results.values():
        for key, declared in (("metrics", BENCH["end_to_end"]), ("per_layer", BENCH["per_layer"])):
            assert {n: m["unit"] for n, m in report[key].items()} == {
                m["name"]: m["unit"] for m in declared}
        assert all(m["value"] > 0 for m in report["metrics"].values())


def test_single_workload_line_lists_exactly_the_declared_metrics():
    last = run_bench("--smoke", "--workload", "replicate", "--seed", "3", "--seconds", "1",
                     "--trace", "1")
    assert set(last["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    assert all(set(m) == {"value", "unit"} for m in last["metrics"].values())


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, "op"),
        Span(1, "a", 1.0, 4.0, 0, "op"),
        Span(2, "a.child", 2.0, 3.0, 1, "op"),
        Span(3, "b", 3.5, 6.0, 0, "op"),  # overlaps a: the union counts once
        Span(4, "c", 9.0, 12.0, 0, "op"),  # runs past its parent: clipped
    ]
    got = self_times(spans)
    assert got == pytest.approx({0: 10.0 - 5.0 - 1.0, 1: 2.0, 2: 1.0, 3: 2.5, 4: 3.0})
    assert union_length([], 0.0, 1.0) == 0.0


def test_flipped_reference_digest_fails_the_operation(tmp_path):
    ref = tmp_path / "reference.json"
    args = ("--smoke", "--workload", "replicate", "--seed", "0", "--reference", str(ref))
    subprocess.run([sys.executable, str(HERE / "run.py"), *args, "--write-reference"],
                   cwd=ROOT, check=True, capture_output=True, timeout=170)
    clean = run_bench(*args, "--trace", "0")
    assert clean["correct"] and clean["failed"] == 0

    data = json.loads(ref.read_text())
    digest = data["replicate"]["0"][0][3]
    data["replicate"]["0"][0][3] = ("0" if digest[0] != "0" else "1") + digest[1:]
    ref.write_text(json.dumps(data))
    flipped = run_bench(*args, "--trace", "0")
    assert not flipped["correct"]
    assert flipped["failed"] / flipped["attempted"] > 0


def _results(**medians) -> dict:
    return {"workloads": {"w": {
        "attempted": 10, "failed": medians.pop("failed", 0),
        "metrics": {name: {"value": v, "p25": v * (1 - s), "p75": v * (1 + s), "n": 5}
                    for name, (v, s) in medians.items()},
    }}}


@pytest.mark.parametrize(
    "a, b, expected",
    [
        ((10.0, 0.01), (10.5, 0.01), "within bound"),
        ((10.0, 0.01), (12.0, 0.01), "worse"),
        ((10.0, 0.01), (8.0, 0.01), "better"),
        ((10.0, 0.10), (12.0, 0.01), "unresolved"),
    ],
)
def test_compare_verdicts(a, b, expected):
    metrics = [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}]
    rows = compare.compare(_results(pass_s=a), _results(pass_s=b), metrics)
    assert [r["verdict"] for r in rows] == [expected, "within bound"]


def test_compare_higher_is_better_and_failures(tmp_path):
    metrics = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]
    rows = compare.compare(_results(rate=(10.0, 0.0)), _results(rate=(8.0, 0.0), failed=1),
                           metrics)
    assert [r["verdict"] for r in rows] == ["worse", "worse"]

    bench = tmp_path / "BENCHMARK.json"
    bench.write_text(json.dumps({"end_to_end": metrics}))
    paths = []
    for name, (value, failed) in {"a": (10.0, 0), "b": (10.2, 0), "c": (10.2, 2)}.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(_results(rate=(value, 0.0), failed=failed)))
        paths.append(str(path))
    assert compare.main([paths[0], paths[1], "--benchmark", str(bench)]) == 0
    assert compare.main([paths[0], paths[2], "--benchmark", str(bench)]) == 1
