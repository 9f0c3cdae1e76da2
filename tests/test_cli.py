"""Command-line interface."""

import json

import pytest

from repro.cli import main


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for eid in ("F1", "F9", "T1", "T4"):
        assert eid in out


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "satisfying" in out
    assert "qos-sampling" in out


def test_simulate_converging(capsys):
    code = main(
        [
            "simulate",
            "--generator",
            "uniform_slack",
            "--gen-arg",
            "n=64",
            "--gen-arg",
            "m=8",
            "--gen-arg",
            "slack=0.3",
            "--protocol",
            "permit",
            "--initial",
            "pile",
            "--seed",
            "3",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "satisfying"
    assert payload["n_users"] == 64


def test_simulate_nonconverging_exit_code(capsys):
    code = main(
        [
            "simulate",
            "--generator",
            "overloaded",
            "--gen-arg",
            "n=40",
            "--gen-arg",
            "m=4",
            "--gen-arg",
            "q=4.0",
            "--protocol",
            "blind-random",
            "--max-rounds",
            "20",
        ]
    )
    assert code == 2  # ran out of budget


def test_run_f2_small(tmp_path, capsys):
    code = main(
        [
            "run",
            "F2",
            "--set",
            "n=128",
            "--set",
            "m=8",
            "--set",
            "n_reps=2",
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "F2" in out
    files = list(tmp_path.glob("f2_ci.*"))
    assert len(files) == 2
    payload = json.loads((tmp_path / "f2_ci.json").read_text())
    assert payload["experiment_id"] == "F2"
    assert payload["rows"]


def test_fluid_command(capsys):
    assert main(["fluid", "--n", "10000", "--m", "16"]) == 0
    out = capsys.readouterr().out
    assert "fluid forecast" in out
    assert "rounds to unsatisfied mass" in out


def test_churn_command(capsys):
    assert main(
        ["churn", "--rho", "0.7", "--m", "8", "--q", "8", "--rounds", "80",
         "--warmup", "20"]
    ) == 0
    out = capsys.readouterr().out
    assert "steady_satisfied_fraction" in out
    assert "satisfied fraction" in out


def test_simulate_obs_out_and_trace_report(tmp_path, capsys):
    events = tmp_path / "run.jsonl"
    code = main(
        [
            "simulate",
            "--generator",
            "uniform_slack",
            "--gen-arg",
            "n=64",
            "--gen-arg",
            "m=8",
            "--gen-arg",
            "slack=0.3",
            "--initial",
            "pile",
            "--obs-out",
            str(events),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert str(events) in captured.err
    assert events.exists()
    header = json.loads(events.read_text().splitlines()[0])
    assert header["schema"] == "obs-events/v1"
    assert header["meta"]["command"] == "simulate"

    assert main(["trace-report", str(events), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "trace report" in out
    assert "engine.round" in out
    assert "counter totals" in out


def test_trend_command(tmp_path, capsys, monkeypatch, bench_payload):
    payload, _ = bench_payload
    a = tmp_path / "BENCH_a.json"
    b = tmp_path / "BENCH_b.json"
    for path, created in ((a, 100.0), (b, 200.0)):
        path.write_text(json.dumps({**payload, "created_unix": created}))
    assert main(["trend", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "bench trend" in out
    assert "2 artifact(s)" in out
    assert "unit/sampling/sync" in out
    assert "obs/overhead" in out

    # no artifacts anywhere -> exit 2, not a traceback
    monkeypatch.chdir(tmp_path / "..")
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.chdir(empty)
    assert main(["trend"]) == 2


def test_bad_kv_arg():
    with pytest.raises(SystemExit):
        main(["simulate", "--generator", "uniform_slack", "--gen-arg", "oops"])


def test_unknown_experiment():
    with pytest.raises(KeyError):
        main(["run", "ZZ"])


# -- sweep orchestration -------------------------------------------------------


SWEEP_ARGS = [
    "sweep", "F1", "--set", "F1.ns=16,32", "--set", "F1.n_reps=2",
    "--set", "F1.users_per_resource=4", "--timeout", "0",
]


def test_sweep_run_resume_status_gc(tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(SWEEP_ARGS + ["--out", str(out), "--max-cells", "1"]) == 0
    text = capsys.readouterr().out
    assert "1 run" in text and "1 deferred" in text
    assert (out / "journal.jsonl").exists()
    assert (out / "summary.json").exists()

    assert main(["sweep", "--resume", str(out), "--timeout", "0"]) == 0
    text = capsys.readouterr().out
    assert "1 cached" in text and "1 run" in text

    assert main(["runs", "status", str(out)]) == 0
    text = capsys.readouterr().out
    assert "F1" in text and "complete" in text

    assert main(["runs", "gc", str(out), "--dry-run"]) == 0
    text = capsys.readouterr().out
    assert "kept 2" in text


def test_sweep_rejects_unknown_set_target(tmp_path):
    with pytest.raises(SystemExit, match="not in this sweep"):
        main(["sweep", "F1", "--set", "T4.n=64", "--out", str(tmp_path / "sw")])


def test_run_with_store_caches_cells(tmp_path, capsys):
    store = tmp_path / "store"
    args = [
        "run", "F2", "--set", "n=64", "--set", "m=8", "--set", "n_reps=2",
        "--store", str(store),
    ]
    assert main(args) == 0
    first_keys = sorted(p.name for p in store.glob("*.json"))
    assert first_keys  # cells were written through
    assert main(args) == 0  # second render: pure cache hits, same store
    assert sorted(p.name for p in store.glob("*.json")) == first_keys
    capsys.readouterr()


def test_bench_history_and_trend_directory(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    history = tmp_path / "bench-history"
    history.mkdir()
    # An existing directory as --out receives a dated artifact; two fast
    # runs inside one second must not overwrite each other.
    for only in ("query/satisfied-mask", "unit/sampling/sync"):
        assert main(["bench", "--scale", "smoke", "--repeats", "1",
                     "--only", only, "--out", str(history)]) == 0
    artifacts = sorted(history.glob("BENCH_engine-*.json"))
    assert len(artifacts) == 2
    assert all(a.name.endswith("Z.json") for a in artifacts)
    capsys.readouterr()

    assert main(["trend", str(history)]) == 0
    out = capsys.readouterr().out
    assert "2 artifact(s)" in out
    assert "query/satisfied-mask" in out
    assert "unit/sampling/sync" in out
