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
    with pytest.raises(SystemExit, match="unknown experiment 'ZZ'; known: F1, F10") as exc:
        main(["run", "ZZ"])
    assert "T5" in str(exc.value.code)


def test_run_experiment_without_workers_knob_accepts_workers(capsys):
    # F8's runner takes no pool size: --workers is dropped, not passed on.
    args = ["run", "F8", "--workers", "2", "--set", "failure_counts=1,", "--set", "n=64"]
    args += ["--set", "m=8", "--set", "n_reps=2", "--set", "settle_rounds=20"]
    assert main(args) == 0
    assert "F8" in capsys.readouterr().out


def test_run_workers_shards_cells_and_keeps_the_table(capsys):
    # --workers reaches every cell as replicate(..., workers=N): the
    # kernel cells go hybrid, and the table is the serial one.
    from repro.obs import HUB

    args = ["run", "F1", "--set", "ns=64,128,256", "--set", "users_per_resource=16"]
    args += ["--set", "n_reps=3"]

    def table(out):
        return [line for line in out.splitlines() if not line.startswith("[")]

    assert main(args + ["--workers", "0"]) == 0
    serial = table(capsys.readouterr().out)
    with HUB.enabled():
        assert main(args + ["--workers", "2"]) == 0
        backends = [e["backend"] for e in HUB.ring if e["type"] == "replicate"]
    assert backends == ["hybrid"] * 3
    assert table(capsys.readouterr().out) == serial


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


def test_skipped_journal_lines_are_torn_or_not_a_record(tmp_path, capsys):
    out = tmp_path / "sw"
    assert main(SWEEP_ARGS + ["--out", str(out)]) == 0
    with (out / "journal.jsonl").open("a") as fh:
        fh.write("[1, 2]\n")
        fh.write('{"type": "finished", "key": "torn')
    capsys.readouterr()
    assert main(["runs", "status", str(out)]) == 0
    assert "journal: 2 torn or non-record line(s) skipped" in capsys.readouterr().out
    assert main(["runs", "watch", str(out), "--once"]) == 0
    assert "journal: 2 torn or non-record line(s) skipped" in capsys.readouterr().out


def test_sweep_rejects_unknown_set_target(tmp_path):
    with pytest.raises(SystemExit, match="not in this sweep"):
        main(["sweep", "F1", "--set", "T4.n=64", "--out", str(tmp_path / "sw")])


@pytest.mark.parametrize(
    "argv",
    [["sweep", "F3", "--set", "reps=2"], ["sweep", "F1", "--set", "T4.n=64"]],
    ids=["unknown-key", "unknown-target"],
)
def test_failed_sweep_enumeration_leaves_no_out_dir(argv, tmp_path):
    out = tmp_path / "sw"
    with pytest.raises(SystemExit):
        main(argv + ["--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, eid",
    [
        (["run", "F3", "--set", "reps=2"], "F3"),
        (["sweep", "F3", "--set", "reps=2"], "F3"),
        (["run", "F13", "--set", "protocol=admission"], "F13"),
    ],
    ids=["run", "sweep", "run-F13-protocol"],
)
def test_unknown_set_key_is_a_one_line_error(argv, eid, tmp_path):
    if argv[0] == "sweep":
        argv = argv + ["--out", str(tmp_path / "sw")]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    message = str(exc.value.code)
    assert "\n" not in message
    assert message.startswith(f"{eid} has no parameter ")
    assert "n_reps" in message  # names the runner's real parameters


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
