"""Batched replication engine: bit-parity, fallbacks, termination, perf.

The central contract (see ``repro.sim.batch``) is that each batched
replication is **bit-identical** to a scalar run fed the same generator
stream, and — because both backends derive the same per-rep seeds and
build the same ``default_rng`` streams — that ``backend="serial"`` and
``backend="batched"`` produce identical per-rep results.  The grid here
is therefore stronger than a statistical match: it asserts equality
field by field, plus one hardcoded snapshot pin so both engines drifting
*together* is also caught.
"""

import numpy as np
import pytest

from repro.registry import build_instance, build_protocol, build_schedule
from repro.sim.batch import (
    batch_support,
    batch_supported,
    replicate_batched,
    run_batch,
)
from repro.sim.engine import run
from repro.sim.parallel import RunSpec, replicate, set_default_backend

GENERATORS = [
    ("uniform_slack", {"slack": 0.35}),
    ("random_access", {"degree": 4, "slack": 0.5, "rng": 3}),
    ("weighted_uniform", {"slack": 0.4, "weight_ratio": 4.0, "rng": 7}),
]
RATES = [
    None,
    {"name": "const", "p": 0.7},
    {"name": "slack-proportional", "floor": 0.05},
    {"name": "adaptive-backoff", "p0": 0.8, "backoff": 0.5, "recover": 1.25, "floor": 0.05},
]
SCHEDULES = [("synchronous", {}), ("alpha", {"alpha": 0.6})]

N, M, MAX_ROUNDS = 80, 8, 250


def spec(**over):
    base = dict(
        generator="uniform_slack",
        generator_kwargs={"n": 96, "m": 8, "slack": 0.35},
        protocol="qos-sampling",
        initial="pile",
        max_rounds=2000,
        label="batch-test",
    )
    base.update(over)
    return RunSpec(**base)


def summary(r):
    return (
        r.status,
        r.rounds,
        r.total_moves,
        r.total_attempts,
        r.total_messages,
        r.n_satisfied,
        r.satisfying_round,
        r.seed,
    )


# ---------------------------------------------------------------------------
# Differential grid: batched vs scalar on shared streams, bit for bit.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gen_name,gen_kwargs", GENERATORS)
@pytest.mark.parametrize("rate", RATES, ids=lambda r: "default" if r is None else r["name"])
@pytest.mark.parametrize("sched_name,sched_kwargs", SCHEDULES)
@pytest.mark.parametrize("initial", ["random", "pile"])
def test_bit_parity_vs_scalar(gen_name, gen_kwargs, rate, sched_name, sched_kwargs, initial):
    """Same stream in, same trajectory out — every summary field and the
    final assignment match the scalar engine exactly."""
    instance = build_instance(gen_name, n=N, m=M, **gen_kwargs)
    seeds = [21, 22]
    batch = run_batch(
        instance,
        build_protocol("qos-sampling", rate=rate),
        seeds=[np.random.default_rng(s) for s in seeds],
        schedule=build_schedule(sched_name, **sched_kwargs),
        max_rounds=MAX_ROUNDS,
        initial=initial,
    )
    for i, s in enumerate(seeds):
        ref = run(
            instance,
            build_protocol("qos-sampling", rate=rate),
            seed=np.random.default_rng(s),
            schedule=build_schedule(sched_name, **sched_kwargs),
            max_rounds=MAX_ROUNDS,
            initial=initial,
            keep_state=True,
        )
        assert batch.statuses[i] == ref.status
        assert int(batch.rounds[i]) == ref.rounds
        assert int(batch.total_moves[i]) == ref.total_moves
        assert int(batch.total_attempts[i]) == ref.total_attempts
        assert int(batch.total_messages[i]) == ref.total_messages
        assert int(batch.n_satisfied[i]) == ref.n_satisfied
        sr = int(batch.satisfying_rounds[i])
        assert (None if sr < 0 else sr) == ref.satisfying_round
        assert np.array_equal(batch.final_assignment[i], ref.final_state.assignment)


def test_backends_bit_identical_per_rep():
    """replicate() gives the same per-rep results on either backend."""
    for over in (
        {},
        {"protocol_kwargs": {"rate": {"name": "slack-proportional"}}},
        {"schedule": "alpha", "schedule_kwargs": {"alpha": 0.5}, "initial": "random"},
    ):
        s = spec(**over)
        serial = replicate(s, 8, base_seed=5, workers=0, backend="serial")
        batched = replicate(s, 8, base_seed=5, backend="batched")
        assert [summary(r) for r in serial] == [summary(r) for r in batched]


def test_exact_equality_pin():
    """Hardcoded snapshot: catches both engines drifting in lockstep."""
    s = spec(
        generator_kwargs={"n": 64, "m": 8, "slack": 0.35},
        max_rounds=2000,
        label="pin",
    )
    expected = [
        ("satisfying", 3, 56, 111, 64, 3, 6852282906729047298),
        ("satisfying", 3, 54, 122, 64, 3, 1883546537405217907),
        ("satisfying", 3, 51, 123, 64, 3, 7955678236725011288),
        ("satisfying", 3, 54, 117, 64, 3, 8917795225446092046),
    ]
    for backend in ("serial", "batched"):
        got = [
            (r.status, r.rounds, r.total_moves, r.total_messages, r.n_satisfied,
             r.satisfying_round, r.seed)
            for r in replicate(s, 4, base_seed=2026, backend=backend)
        ]
        assert got == expected, backend


# ---------------------------------------------------------------------------
# Per-rep termination: dead replications stop consuming their streams.
# ---------------------------------------------------------------------------


def test_alive_mask_stops_stream_consumption():
    """Reps that finish early leave the batch with exactly a solo run's
    stream state, even while slower reps keep drawing."""
    instance = build_instance("uniform_slack", n=N, m=M, slack=0.3)
    protocol = build_protocol("qos-sampling")
    seeds = [101, 102, 103, 104, 105]
    gens = [np.random.default_rng(s) for s in seeds]
    batch = run_batch(
        instance, protocol, seeds=gens, max_rounds=MAX_ROUNDS, initial="random"
    )
    assert len(set(int(r) for r in batch.rounds)) > 1  # mixed-length batch
    for s, g in zip(seeds, gens):
        solo = np.random.default_rng(s)
        run(
            instance,
            build_protocol("qos-sampling"),
            seed=solo,
            max_rounds=MAX_ROUNDS,
            initial="random",
        )
        assert g.bit_generator.state == solo.bit_generator.state


# ---------------------------------------------------------------------------
# Support matrix and graceful fallback.
# ---------------------------------------------------------------------------


def test_batch_support_reasons():
    assert batch_support(spec()) is None
    assert batch_supported(spec())
    # Every protocol with a batched kernel is supported on kernel-friendly
    # schedules/initials — including the ones the gate used to reject.
    for kernel_spec in (
        spec(protocol="multi-probe", protocol_kwargs={"d": 2}),
        spec(protocol="permit"),
        spec(protocol="neighborhood", protocol_kwargs={"topology": "ring", "m": 8}),
        spec(
            protocol="neighborhood",
            protocol_kwargs={"topology": "ring", "m": 8, "rate": {"name": "slack-proportional"}},
        ),
    ):
        assert batch_support(kernel_spec) is None, kernel_spec.protocol
        assert batch_supported(kernel_spec), kernel_spec.protocol
    cases = {
        "protocol": spec(protocol="best-response"),
        "schedule": spec(schedule="partition", schedule_kwargs={"k": 2}),
        "instance": spec(instance_seed_key="per-rep"),
        "resample": spec(protocol_kwargs={"resample_on_self": True}),
        "initial": spec(initial="spread"),
        "topology": spec(
            protocol="neighborhood", protocol_kwargs={"topology": "moebius", "m": 8}
        ),
    }
    for label, s in cases.items():
        reason = batch_support(s)
        assert reason is not None and isinstance(reason, str), label
        assert not batch_supported(s), label


def test_unsupported_spec_falls_back_to_serial():
    s = spec(schedule="partition", schedule_kwargs={"k": 2})
    via_batched = replicate(s, 4, base_seed=3, backend="batched")
    via_serial = replicate(s, 4, base_seed=3, workers=0, backend="serial")
    assert [summary(r) for r in via_batched] == [summary(r) for r in via_serial]


def test_run_batch_rejects_unsupported_protocol():
    instance = build_instance("uniform_slack", n=32, m=4, slack=0.4)
    with pytest.raises(ValueError, match="no batched kernel"):
        run_batch(instance, build_protocol("best-response"), seeds=[1, 2])


def test_run_batch_validation():
    instance = build_instance("uniform_slack", n=32, m=4, slack=0.4)
    protocol = build_protocol("qos-sampling")
    with pytest.raises(ValueError):
        run_batch(instance, protocol, seeds=[])
    with pytest.raises(ValueError):
        run_batch(instance, protocol, seeds=[1], max_rounds=-1)
    with pytest.raises(ValueError):
        replicate_batched(spec(), 0)
    with pytest.raises(ValueError, match="no batched kernel"):
        replicate_batched(spec(protocol="best-response"), 2)


def test_single_rep_batched_matches_serial():
    # backend="batched" honors R=1; "auto" routes R=1 to the scalar path.
    s = spec()
    one_serial = replicate(s, 1, base_seed=9, workers=0, backend="serial")
    one_batched = replicate(s, 1, base_seed=9, backend="batched")
    one_auto = replicate(s, 1, base_seed=9, backend="auto")
    assert summary(one_serial[0]) == summary(one_batched[0]) == summary(one_auto[0])


def test_set_default_backend_roundtrip():
    previous = set_default_backend("serial")
    try:
        assert set_default_backend("auto") == "serial"
        with pytest.raises(ValueError, match="unknown backend"):
            set_default_backend("gpu")
    finally:
        set_default_backend(previous)


# ---------------------------------------------------------------------------
# Decomposition.
# ---------------------------------------------------------------------------


def test_decompose_fields():
    batch = replicate_batched(spec(max_rounds=3), 5, base_seed=11)
    assert len(batch) == 5
    for r in batch:
        assert r.n_users == 96 and r.n_resources == 8
        assert isinstance(r.seed, int)
        assert r.protocol["name"].startswith("qos-sampling")
        if r.status == "max_rounds":
            assert r.rounds == 3 and r.satisfying_round is None
        elif r.status == "satisfying":
            assert r.satisfying_round == r.rounds
    assert len({r.seed for r in batch}) == 5


def test_max_rounds_zero_round_satisfaction():
    # A trivially feasible instance satisfies at round 0 on both engines.
    s = spec(generator_kwargs={"n": 4, "m": 8, "slack": 0.9}, max_rounds=0, initial="random")
    for backend in ("serial", "batched"):
        for r in replicate(s, 3, base_seed=1, backend=backend):
            assert r.status == "satisfying"
            assert r.rounds == 0 and r.satisfying_round == 0


# ---------------------------------------------------------------------------
# Throughput (stress: excluded from the blocking tier-1 job).
# ---------------------------------------------------------------------------


@pytest.mark.stress
def test_batched_throughput_3x_on_smoke_workload():
    """The documented claim: >=3x user-round throughput at n=2000, R=32."""
    s = spec(
        generator_kwargs={"n": 2000, "m": 64, "slack": 0.4},
        max_rounds=64,
        label="stress-batch",
    )
    from repro.bench import time_legs

    reps = 32
    best, results = time_legs(
        {
            "serial": lambda: replicate(s, reps, base_seed=0, workers=0, backend="serial"),
            "batched": lambda: replicate(s, reps, base_seed=0, backend="batched"),
        },
        repeats=5,
    )
    serial_res, batched_res = results["serial"], results["batched"]
    assert [summary(r) for r in serial_res] == [summary(r) for r in batched_res]
    rounds = sum(r.rounds for r in serial_res)
    serial_urps = rounds * 2000 / best["serial"]["seconds"]
    batched_urps = rounds * 2000 / best["batched"]["seconds"]
    assert batched_urps >= 3.0 * serial_urps, (
        f"batched {batched_urps:,.0f} vs serial {serial_urps:,.0f} user-rounds/s"
    )


# ---------------------------------------------------------------------------
# Degenerate edges: both backends agree where the round loop barely runs.
# ---------------------------------------------------------------------------


class TestDegenerateEdges:
    """Backend parity at the boundaries: empty round budget, a single
    resource (nowhere to move), and a start state that already satisfies."""

    def test_max_rounds_zero_infeasible_parity(self):
        # Pile start on a tight instance cannot satisfy at round 0; both
        # backends must stop immediately with the same accounting.
        s = spec(max_rounds=0, initial="pile")
        serial = replicate(s, 3, base_seed=5, workers=0, backend="serial")
        batched = replicate(s, 3, base_seed=5, backend="batched")
        assert [summary(r) for r in serial] == [summary(r) for r in batched]
        for r in serial:
            assert r.status == "max_rounds" and r.rounds == 0
            assert r.total_moves == 0 and r.total_attempts == 0

    def test_single_resource_parity(self):
        # m = 1: every sampled target is the current resource, so nothing
        # ever moves.  Generous capacity -> satisfies at round 0; an
        # overloaded single resource -> identical non-convergence.
        generous = spec(
            generator_kwargs={"n": 6, "m": 1, "slack": 0.5},
            initial="random",
            max_rounds=50,
        )
        for r_s, r_b in zip(
            replicate(generous, 2, base_seed=9, workers=0, backend="serial"),
            replicate(generous, 2, base_seed=9, backend="batched"),
        ):
            assert summary(r_s) == summary(r_b)
            assert r_s.status == "satisfying" and r_s.rounds == 0

        jammed = spec(
            generator="overloaded",
            generator_kwargs={"n": 8, "m": 1, "q": 2.0},
            initial="pile",
            max_rounds=25,
        )
        for r_s, r_b in zip(
            replicate(jammed, 2, base_seed=9, workers=0, backend="serial"),
            replicate(jammed, 2, base_seed=9, backend="batched"),
        ):
            assert summary(r_s) == summary(r_b)
            assert r_s.status in ("max_rounds", "quiescent")
            assert r_s.total_moves == 0

    def test_all_satisfied_initial_with_budget_parity(self):
        # Already-satisfying start with rounds to spare: both backends
        # report round-0 satisfaction without consuming the budget.
        s = spec(
            generator_kwargs={"n": 4, "m": 8, "slack": 0.9},
            initial="random",
            max_rounds=100,
        )
        serial = replicate(s, 3, base_seed=2, workers=0, backend="serial")
        batched = replicate(s, 3, base_seed=2, backend="batched")
        assert [summary(r) for r in serial] == [summary(r) for r in batched]
        for r in serial:
            assert r.status == "satisfying"
            assert r.rounds == 0 and r.satisfying_round == 0


# ---------------------------------------------------------------------------
# Kernel coverage: multi-probe, permit and neighborhood match the scalar
# engine bit for bit on the same grid as the sampling kernel.
# ---------------------------------------------------------------------------


#: (protocol, kwargs) pairs spanning every new kernel, its tunables and
#: the rate rules it composes with (permit takes no rate by design).
KERNEL_PROTOCOLS = [
    ("multi-probe", {"d": 2}),
    ("multi-probe", {"d": 3, "rate": {"name": "slack-proportional", "floor": 0.05}}),
    (
        "multi-probe",
        {
            "d": 2,
            "rate": {
                "name": "adaptive-backoff",
                "p0": 0.8,
                "backoff": 0.5,
                "recover": 1.25,
                "floor": 0.05,
            },
        },
    ),
    ("permit", {}),
    ("neighborhood", {"topology": "ring", "m": M}),
    (
        "neighborhood",
        {
            "topology": "random-regular",
            "m": M,
            "rate": {"name": "slack-proportional", "floor": 0.05},
        },
    ),
]


@pytest.mark.parametrize("gen_name,gen_kwargs", GENERATORS)
@pytest.mark.parametrize(
    "proto_name,proto_kwargs", KERNEL_PROTOCOLS, ids=lambda p: str(p)
)
@pytest.mark.parametrize("sched_name,sched_kwargs", SCHEDULES)
def test_kernel_bit_parity_vs_scalar(
    gen_name, gen_kwargs, proto_name, proto_kwargs, sched_name, sched_kwargs
):
    instance = build_instance(gen_name, n=N, m=M, **gen_kwargs)
    seeds = [21, 22]
    batch = run_batch(
        instance,
        build_protocol(proto_name, **proto_kwargs),
        seeds=[np.random.default_rng(s) for s in seeds],
        schedule=build_schedule(sched_name, **sched_kwargs),
        max_rounds=MAX_ROUNDS,
        initial="pile",
    )
    for i, s in enumerate(seeds):
        ref = run(
            instance,
            build_protocol(proto_name, **proto_kwargs),
            seed=np.random.default_rng(s),
            schedule=build_schedule(sched_name, **sched_kwargs),
            max_rounds=MAX_ROUNDS,
            initial="pile",
            keep_state=True,
        )
        assert batch.statuses[i] == ref.status
        assert int(batch.rounds[i]) == ref.rounds
        assert int(batch.total_moves[i]) == ref.total_moves
        assert int(batch.total_attempts[i]) == ref.total_attempts
        assert int(batch.total_messages[i]) == ref.total_messages
        assert int(batch.n_satisfied[i]) == ref.n_satisfied
        sr = int(batch.satisfying_rounds[i])
        assert (None if sr < 0 else sr) == ref.satisfying_round
        assert np.array_equal(batch.final_assignment[i], ref.final_state.assignment)


# ---------------------------------------------------------------------------
# Batched event injection: mid-run perturbations replay identically.
# ---------------------------------------------------------------------------


def _event_script(m):
    from repro.core.latency import AffineLatency
    from repro.sim.events import (
        ResourceFailure,
        ResourceRecovery,
        UserArrival,
        UserDeparture,
    )

    return [
        ResourceFailure(3, 1),
        ResourceRecovery(7, 1, AffineLatency(1.0, 0.0)),
        UserArrival(10, thresholds=np.full(6, 28.0)),
        UserDeparture(13, users=[0, 2, 5]),
    ]


@pytest.mark.parametrize(
    "proto_name,proto_kwargs",
    [
        ("qos-sampling", {}),
        ("multi-probe", {"d": 2}),
        ("permit", {}),
        ("neighborhood", {"topology": "ring", "m": M}),
    ],
    ids=lambda p: str(p),
)
def test_batched_event_injection_parity(proto_name, proto_kwargs):
    """Failure/recovery/arrival/departure events through the batched engine
    match a scalar run of the same script, including recovery accounting."""
    instance = build_instance("uniform_slack", n=N, m=M, slack=0.35)
    seeds = [41, 42, 43]
    batch = run_batch(
        instance,
        build_protocol(proto_name, **proto_kwargs),
        seeds=[np.random.default_rng(s) for s in seeds],
        max_rounds=MAX_ROUNDS,
        initial="pile",
        events=_event_script(M),
    )
    for i, s in enumerate(seeds):
        ref = run(
            instance,
            build_protocol(proto_name, **proto_kwargs),
            seed=np.random.default_rng(s),
            max_rounds=MAX_ROUNDS,
            initial="pile",
            events=_event_script(M),
            keep_state=True,
        )
        assert batch.statuses[i] == ref.status
        assert int(batch.rounds[i]) == ref.rounds
        assert int(batch.total_moves[i]) == ref.total_moves
        assert int(batch.total_messages[i]) == ref.total_messages
        assert int(batch.n_satisfied[i]) == ref.n_satisfied
        assert batch.last_event_round == ref.last_event_round
        sr = int(batch.satisfying_rounds[i])
        assert (None if sr < 0 else sr) == ref.satisfying_round
        assert np.array_equal(batch.final_assignment[i], ref.final_state.assignment)


def test_run_batch_rejects_unsupported_events():
    from repro.sim.events import UserDeparture

    instance = build_instance("uniform_slack", n=32, m=4, slack=0.4)
    protocol = build_protocol("qos-sampling")
    with pytest.raises(ValueError, match="random-count"):
        run_batch(instance, protocol, seeds=[1, 2], events=[UserDeparture(5, count=3)])


# ---------------------------------------------------------------------------
# Hybrid backend: sharding across a pool never changes a single bit.
# ---------------------------------------------------------------------------


def test_hybrid_bit_identical_across_worker_counts():
    """Per-rep seeds depend only on the global rep index, so any shard
    split — including the degenerate 1-shard batched path — reproduces the
    serial results exactly."""
    s = spec()
    expected = [
        summary(r) for r in replicate(s, 9, base_seed=7, workers=0, backend="serial")
    ]
    for workers in (1, 2, 3, 5, None):
        got = [
            summary(r)
            for r in replicate(s, 9, base_seed=7, workers=workers, backend="hybrid")
        ]
        assert got == expected, f"workers={workers}"


def test_hybrid_bit_identical_under_chunking():
    """User-axis chunk size is an execution detail: tiny chunks force the
    chunked kernel blocks without perturbing hybrid results."""
    from repro.core.memory import set_user_chunk

    s = spec(protocol_kwargs={"rate": {"name": "slack-proportional"}})
    expected = [
        summary(r) for r in replicate(s, 6, base_seed=3, workers=0, backend="serial")
    ]
    previous = set_user_chunk(17)
    try:
        got = [
            summary(r)
            for r in replicate(s, 6, base_seed=3, workers=2, backend="hybrid")
        ]
    finally:
        set_user_chunk(previous)
    assert got == expected


def test_hybrid_falls_back_on_unsupported_spec():
    s = spec(schedule="partition", schedule_kwargs={"k": 2})
    via_hybrid = replicate(s, 4, base_seed=3, workers=2, backend="hybrid")
    via_serial = replicate(s, 4, base_seed=3, workers=0, backend="serial")
    assert [summary(r) for r in via_hybrid] == [summary(r) for r in via_serial]


@pytest.mark.stress
def test_hybrid_beats_both_pure_legs_on_multicore():
    """The ISSUE claim: at R=32 on >=2 cores the hybrid backend beats the
    scalar pool outright and at least matches single-process batched."""
    import os

    cores = os.cpu_count() or 1
    if cores < 2:
        pytest.skip("hybrid degenerates to plain batched on one core")
    s = spec(
        generator_kwargs={"n": 2000, "m": 64, "slack": 0.4},
        max_rounds=64,
        label="stress-hybrid",
    )
    from repro.bench import time_legs

    reps = 32
    workers = min(4, cores)
    best, results = time_legs(
        {
            "pool": lambda: replicate(s, reps, base_seed=0, workers=workers, backend="serial"),
            "batched": lambda: replicate(s, reps, base_seed=0, backend="batched"),
            "hybrid": lambda: replicate(s, reps, base_seed=0, workers=workers, backend="hybrid"),
        },
        repeats=5,
    )
    pool_res, batched_res, hybrid_res = results["pool"], results["batched"], results["hybrid"]
    pool_best, batched_best, hybrid_best = (
        best[leg]["seconds"] for leg in ("pool", "batched", "hybrid")
    )
    assert [summary(r) for r in hybrid_res] == [summary(r) for r in pool_res]
    assert [summary(r) for r in hybrid_res] == [summary(r) for r in batched_res]
    assert hybrid_best < pool_best, (
        f"hybrid {hybrid_best:.3f}s vs pool {pool_best:.3f}s @{workers} workers"
    )
    # Process spin-up costs a little; "beats batched" is the multi-core
    # expectation but noise-tolerant: allow 10% slack.
    assert hybrid_best <= batched_best * 1.1, (
        f"hybrid {hybrid_best:.3f}s vs batched {batched_best:.3f}s @{workers} workers"
    )


# ---------------------------------------------------------------------------
# Dtype audit: wide (pre-audit int64) and narrow layouts are bit-identical.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gen_name,gen_kwargs", GENERATORS)
@pytest.mark.parametrize("rate", RATES, ids=lambda r: "default" if r is None else r["name"])
@pytest.mark.parametrize("sched_name,sched_kwargs", SCHEDULES)
@pytest.mark.parametrize("initial", ["random", "pile"])
def test_narrow_dtypes_bit_identical_to_wide(
    gen_name, gen_kwargs, rate, sched_name, sched_kwargs, initial
):
    """The int16/int32 audit is invisible: the same stream through the
    pre-audit all-int64 layout (``wide_dtypes``) and the narrowed layout
    yields identical trajectories on both backends."""
    from repro.core.memory import wide_dtypes

    def legs(seed):
        instance = build_instance(gen_name, n=N, m=M, **gen_kwargs)
        ref = run(
            instance,
            build_protocol("qos-sampling", rate=rate),
            seed=np.random.default_rng(seed),
            schedule=build_schedule(sched_name, **sched_kwargs),
            max_rounds=MAX_ROUNDS,
            initial=initial,
            keep_state=True,
        )
        batch = run_batch(
            instance,
            build_protocol("qos-sampling", rate=rate),
            seeds=[np.random.default_rng(seed)],
            schedule=build_schedule(sched_name, **sched_kwargs),
            max_rounds=MAX_ROUNDS,
            initial=initial,
        )
        return ref, batch

    with wide_dtypes():
        ref_w, batch_w = legs(33)
    ref_n, batch_n = legs(33)

    assert ref_w.summary() == ref_n.summary()
    # array_equal compares values, not dtypes: int64 vs int16 layouts agree
    assert np.array_equal(ref_w.final_state.assignment, ref_n.final_state.assignment)
    assert batch_w.statuses == batch_n.statuses
    assert np.array_equal(batch_w.rounds, batch_n.rounds)
    assert np.array_equal(batch_w.total_moves, batch_n.total_moves)
    assert np.array_equal(batch_w.final_assignment, batch_n.final_assignment)
