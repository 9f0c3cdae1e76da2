"""Batched replication engine: bit-parity, fallbacks, termination, perf.

The central contract (see ``repro.sim.batch``) is that each batched
replication is **bit-identical** to a scalar run fed the same generator
stream, and — because both engines derive the same per-rep seeds and
build the same ``default_rng`` streams — that ``replicate`` and
``replicate_batched`` reproduce the scalar ``run_spec`` reference per
rep, whichever engine ``replicate`` picks.  The grid here
is therefore stronger than a statistical match: it asserts equality
field by field, plus one hardcoded snapshot pin so both engines drifting
*together* is also caught.
"""

import numpy as np
import pytest

from repro.registry import build_instance, build_protocol, build_schedule
from repro.sim.batch import (
    batch_support,
    replicate_batched,
    run_batch,
)
from repro.sim.engine import run
from repro.sim.parallel import (
    RunSpec,
    rep_seed,
    replicate,
    replicate_engine,
    run_spec,
    spec_seed_key,
)

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


def scalar_reference(s, n_reps, base_seed):
    """The per-rep results of ``s``, one scalar ``run_spec`` at a time."""
    key = spec_seed_key(s)
    return [run_spec(s, rep_seed(base_seed, key, i)) for i in range(n_reps)]


def lockstep(instance, proto_name, proto_kwargs, seeds, sched_name, sched_kwargs,
             initial):
    """``run_batch`` over one generator stream per seed."""
    return run_batch(
        instance,
        build_protocol(proto_name, **proto_kwargs),
        seeds=[np.random.default_rng(s) for s in seeds],
        schedule=build_schedule(sched_name, **sched_kwargs),
        max_rounds=MAX_ROUNDS,
        initial=initial,
    )


def assert_matches_scalar(batch, instance, proto_name, proto_kwargs, seeds,
                          sched_name, sched_kwargs, initial):
    """Every summary field and the final assignment of each batched rep
    equal a scalar ``run`` fed the same stream."""
    for i, s in enumerate(seeds):
        ref = run(
            instance,
            build_protocol(proto_name, **proto_kwargs),
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
        assert batch.results[i].satisfying_round == ref.satisfying_round
        assert np.array_equal(batch.final_assignment[i], ref.final_state.assignment)


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
    args = ("qos-sampling", {"rate": rate}, [21, 22], sched_name, sched_kwargs, initial)
    assert_matches_scalar(lockstep(instance, *args), instance, *args)


def test_backends_bit_identical_per_rep():
    """replicate() and replicate_batched() match the scalar reference per rep."""
    for over in (
        {},
        {"protocol_kwargs": {"rate": {"name": "slack-proportional"}}},
        {"schedule": "alpha", "schedule_kwargs": {"alpha": 0.5}, "initial": "random"},
        {"protocol_kwargs": {"resample_on_self": True}},
    ):
        s = spec(**over)
        serial = scalar_reference(s, 8, base_seed=5)
        batched = replicate_batched(s, 8, base_seed=5)
        auto = replicate(s, 8, base_seed=5, workers=0)
        assert [summary(r) for r in serial] == [summary(r) for r in batched]
        assert [summary(r) for r in serial] == [summary(r) for r in auto]


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
    for engine in (scalar_reference, replicate_batched, replicate):
        got = [
            (r.status, r.rounds, r.total_moves, r.total_messages, r.n_satisfied,
             r.satisfying_round, r.seed)
            for r in engine(s, 4, base_seed=2026)
        ]
        assert got == expected, engine.__name__


@pytest.mark.parametrize("gen_name,gen_kwargs", GENERATORS)
@pytest.mark.parametrize("sched_name,sched_kwargs", SCHEDULES)
def test_backoff_vector_matches_scalar_per_row(
    gen_name, gen_kwargs, sched_name, sched_kwargs, monkeypatch
):
    """Each lockstep row's backoff probabilities, taken from the kernel as
    the row ends, equal the scalar run's kernel vector after the same
    rounds."""
    from repro.sim.batch import _BatchEngine

    final = {}
    retire = _BatchEngine._retire

    def recording(engine, keep, rows):
        for k in np.flatnonzero(~keep):
            final[int(rows[k])] = engine.kernel.P[k].copy()
        retire(engine, keep, rows)

    monkeypatch.setattr(_BatchEngine, "_retire", recording)
    instance = build_instance(gen_name, n=N, m=M, **gen_kwargs)
    kwargs, seeds = {"rate": RATES[3]}, [21, 22, 23, 24, 25]
    lockstep(instance, "qos-sampling", kwargs, seeds, sched_name, sched_kwargs, "pile")
    assert sorted(final) == list(range(len(seeds)))
    for i, s in enumerate(seeds):
        proto = build_protocol("qos-sampling", **kwargs)
        run(
            instance,
            proto,
            seed=np.random.default_rng(s),
            schedule=build_schedule(sched_name, **sched_kwargs),
            max_rounds=MAX_ROUNDS,
            initial="pile",
        )
        assert np.array_equal(final[i], proto._compiled.P[0])
        assert not np.all(final[i] == RATES[3]["p0"])  # the vector did move


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
        spec(protocol_kwargs={"resample_on_self": True}),
        spec(protocol="naive-greedy"),
        spec(protocol="blind-random", protocol_kwargs={"jump_p": 0.4}),
    ):
        assert batch_support(kernel_spec) is None, kernel_spec.protocol
    cases = {
        "protocol": spec(protocol="best-response"),
        "schedule": spec(schedule="partition", schedule_kwargs={"k": 2}),
        "initial": spec(initial="spread"),
        "topology": spec(
            protocol="neighborhood", protocol_kwargs={"topology": "moebius", "m": 8}
        ),
    }
    for label, s in cases.items():
        reason = batch_support(s)
        assert reason is not None and isinstance(reason, str), label


def test_batch_support_agrees_with_kernel_kind():
    """Every registered protocol is batchable exactly when its class names a
    kernel, so the spec-level name list cannot drift from the classes."""
    from repro.core.protocols.kernels import kernel_kind
    from repro.registry import PROTOCOLS

    for name in PROTOCOLS:
        kwargs = {"topology": "ring", "m": 8} if name == "neighborhood" else {}
        s = spec(protocol=name, protocol_kwargs=kwargs)
        has_kernel = kernel_kind(build_protocol(name, **kwargs)) is not None
        assert (batch_support(s) is None) == has_kernel, name


def test_unsupported_spec_falls_back_to_serial():
    s = spec(schedule="partition", schedule_kwargs={"k": 2})
    via_replicate = replicate(s, 4, base_seed=3)
    via_serial = scalar_reference(s, 4, base_seed=3)
    assert [summary(r) for r in via_replicate] == [summary(r) for r in via_serial]


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
    # replicate_batched honors R=1; replicate routes R=1 to the scalar path.
    s = spec()
    one_serial = scalar_reference(s, 1, base_seed=9)
    one_batched = replicate_batched(s, 1, base_seed=9)
    one_auto = replicate(s, 1, base_seed=9)
    assert summary(one_serial[0]) == summary(one_batched[0]) == summary(one_auto[0])


@pytest.mark.parametrize(
    "over,n_reps,workers,engine,fallback",
    [
        ({}, 4, 0, "batched", None),
        ({}, 1, 0, "serial", "single replication"),
        ({"protocol": "best-response"}, 1, 0, "serial", "single replication"),
        ({"protocol": "best-response"}, 4, 0, "serial", "no batched kernel"),
        ({"protocol": "best-response"}, 4, 2, "serial", "no batched kernel"),
        ({}, 4, 2, "hybrid", None),
    ],
    ids=["kernel-R4", "kernel-R1", "no-kernel-R1", "no-kernel-R4", "no-kernel-pool", "kernel-pool"],
)
def test_replicate_engine_decision_table(over, n_reps, workers, engine, fallback):
    """replicate picks its engine from the spec, R and the pool alone —
    the obs event names it — and every row reproduces the scalar reference."""
    from repro.obs import HUB

    s = spec(max_rounds=200, **over)
    picked, reason = replicate_engine(s, n_reps, workers)
    assert picked == engine
    if fallback is None:
        assert reason is None
    else:
        assert fallback in reason
    with HUB.enabled():
        got = replicate(s, n_reps, base_seed=4, workers=workers)
        [event] = [e for e in HUB.ring if e["type"] == "replicate"]
    assert event["backend"] == engine
    assert event["serial"] == (engine == "serial" and workers == 0)
    expected = scalar_reference(s, n_reps, base_seed=4)
    assert [summary(r) for r in got] == [summary(r) for r in expected]


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
    for engine in (scalar_reference, replicate_batched):
        for r in engine(s, 3, base_seed=1):
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
            "serial": lambda: scalar_reference(s, reps, base_seed=0),
            "batched": lambda: replicate_batched(s, reps, base_seed=0),
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
# Degenerate edges: both engines agree where the round loop barely runs.
# ---------------------------------------------------------------------------


class TestDegenerateEdges:
    """Engine parity at the boundaries: empty round budget, a single
    resource (nowhere to move), and a start state that already satisfies."""

    def test_max_rounds_zero_infeasible_parity(self):
        # Pile start on a tight instance cannot satisfy at round 0; both
        # engines must stop immediately with the same accounting.
        s = spec(max_rounds=0, initial="pile")
        serial = scalar_reference(s, 3, base_seed=5)
        batched = replicate_batched(s, 3, base_seed=5)
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
            scalar_reference(generous, 2, base_seed=9),
            replicate_batched(generous, 2, base_seed=9),
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
            scalar_reference(jammed, 2, base_seed=9),
            replicate_batched(jammed, 2, base_seed=9),
        ):
            assert summary(r_s) == summary(r_b)
            assert r_s.status in ("max_rounds", "quiescent")
            assert r_s.total_moves == 0

    def test_all_satisfied_initial_with_budget_parity(self):
        # Already-satisfying start with rounds to spare: both engines
        # report round-0 satisfaction without consuming the budget.
        s = spec(
            generator_kwargs={"n": 4, "m": 8, "slack": 0.9},
            initial="random",
            max_rounds=100,
        )
        serial = scalar_reference(s, 3, base_seed=2)
        batched = replicate_batched(s, 3, base_seed=2)
        assert [summary(r) for r in serial] == [summary(r) for r in batched]
        for r in serial:
            assert r.status == "satisfying"
            assert r.rounds == 0 and r.satisfying_round == 0


# ---------------------------------------------------------------------------
# Kernel coverage: multi-probe, permit and neighborhood match the scalar
# engine bit for bit on the same grid as the sampling kernel.
# ---------------------------------------------------------------------------


#: (protocol, kwargs) pairs spanning every new kernel, its tunables and
#: the rate rules it composes with (permit and blind-random take no rate
#: by design; naive-greedy is the sampling kernel at rate 1).
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
    ("blind-random", {}),
    ("blind-random", {"jump_p": 0.4}),
    ("naive-greedy", {}),
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
    args = (proto_name, proto_kwargs, [21, 22], sched_name, sched_kwargs, "pile")
    assert_matches_scalar(lockstep(instance, *args), instance, *args)


@pytest.mark.parametrize("gen_name,gen_kwargs", GENERATORS)
@pytest.mark.parametrize(
    "proto_name,proto_kwargs",
    KERNEL_PROTOCOLS + [("qos-sampling", {"rate": RATES[2]})],
    ids=lambda p: str(p),
)
@pytest.mark.parametrize("sched_name,sched_kwargs", SCHEDULES)
def test_kernel_commits_come_grouped_by_row(
    gen_name, gen_kwargs, proto_name, proto_kwargs, sched_name, sched_kwargs, monkeypatch
):
    """The lockstep round counts each row's attempts at the row boundaries
    of the committed positions, so every kernel call must return them
    grouped by row in row order, each commit's flat target in its own row:
    sorted by flat target for permit, by flat position for the others."""
    from repro.core.protocols.kernels import Kernel

    calls = []
    kernel_call = Kernel.__call__

    def recording(kernel, rnd, pos, rngs, bounds=None, rkm=None, k0=0):
        out = kernel_call(kernel, rnd, pos, rngs, bounds, rkm, k0)
        calls.append((kernel, bounds, k0, out))
        return out

    monkeypatch.setattr(Kernel, "__call__", recording)
    instance = build_instance(gen_name, n=N, m=M, **gen_kwargs)
    args = (proto_name, proto_kwargs, [21, 22, 23], sched_name, sched_kwargs, "pile")
    lockstep(instance, *args)
    multi = [c for c in calls if c[1] is not None and c[3][0].size]
    assert multi
    for kernel, bounds, k0, (fu, _, tf) in multi:
        rows = fu // kernel.n
        assert np.array_equal(rows, tf // kernel.m)
        assert rows.min() >= k0 and rows.max() < k0 + bounds.size - 1
        key = tf if kernel.kind == "permit" else fu
        assert np.all(np.diff(key) >= 0), kernel.kind
        assert np.all(np.diff(fu) > 0) or kernel.kind == "permit"


# ---------------------------------------------------------------------------
# Mover groups: a round proposed in several kernel calls changes no bit.
# ---------------------------------------------------------------------------

#: ``MOVER_CHUNK`` values that split rounds: one row per group, and a
#: budget that groups 80-user rows unevenly as their mover counts fall.
MOVER_CHUNKS = [1, 97]

#: Every kernel protocol of the grid above, plus the sampling kernel's
#: per-row state (backoff probabilities) and in-loop redraws.
GROUP_PROTOCOLS = KERNEL_PROTOCOLS + [
    ("qos-sampling", {"rate": RATES[3]}),
    ("qos-sampling", {"resample_on_self": True}),
]

GROUP_SEEDS = [21, 22, 23, 24, 25]


@pytest.fixture(params=MOVER_CHUNKS, ids=lambda c: f"mover-chunk-{c}")
def mover_groups(request, monkeypatch):
    """Force ``MOVER_CHUNK``; yields it and every round's (per-row mover
    counts, groups)."""
    import repro.sim.batch as batch_module

    rounds = []
    split = batch_module._mover_groups

    def recording(counts):
        groups = split(counts)
        rounds.append((counts.copy(), groups))
        return groups

    monkeypatch.setattr(batch_module, "MOVER_CHUNK", request.param)
    monkeypatch.setattr(batch_module, "_mover_groups", recording)
    return request.param, rounds


@pytest.mark.parametrize("gen_name,gen_kwargs", GENERATORS)
@pytest.mark.parametrize("proto_name,proto_kwargs", GROUP_PROTOCOLS, ids=lambda p: str(p))
@pytest.mark.parametrize("sched_name,sched_kwargs", SCHEDULES)
@pytest.mark.parametrize("initial", ["random", "pile"])
def test_mover_groups_bit_identical(
    gen_name, gen_kwargs, proto_name, proto_kwargs, sched_name, sched_kwargs, initial,
    monkeypatch,
):
    """A round split into mover groups equals the one-group round and the
    scalar engine, bit for bit."""
    import repro.sim.batch as batch_module

    instance = build_instance(gen_name, n=N, m=M, **gen_kwargs)
    args = (proto_name, proto_kwargs, GROUP_SEEDS, sched_name, sched_kwargs, initial)
    whole = lockstep(instance, *args)
    for chunk in MOVER_CHUNKS:
        monkeypatch.setattr(batch_module, "MOVER_CHUNK", chunk)
        grouped = lockstep(instance, *args)
        assert grouped.statuses == whole.statuses
        assert [r.satisfying_round for r in grouped.results] == [
            r.satisfying_round for r in whole.results
        ]
        for field in ("rounds", "total_moves", "total_attempts", "total_messages",
                      "n_satisfied", "final_assignment"):
            assert np.array_equal(getattr(grouped, field), getattr(whole, field)), field
    assert_matches_scalar(grouped, instance, *args)


def test_mover_groups_split_rounds(mover_groups):
    """Groups are contiguous runs of whole rows, each with movers, within
    the budget unless one row alone exceeds it; the forced budgets really
    split rounds, and 97 also groups several rows."""
    chunk, rounds = mover_groups
    instance = build_instance("uniform_slack", n=N, m=M, slack=0.35)
    args = ("qos-sampling", {}, GROUP_SEEDS, "synchronous", {}, "pile")
    assert_matches_scalar(lockstep(instance, *args), instance, *args)
    assert max(len(groups) for _, groups in rounds) > 1
    for counts, groups in rounds:
        assert groups[0][0] == 0 and counts[groups[-1][1]:].sum() == 0
        assert all(a[1] == b[0] for a, b in zip(groups, groups[1:]))
        for k0, k1 in groups:
            movers = counts[k0:k1]
            assert movers.sum() > 0
            assert movers.sum() <= chunk or np.count_nonzero(movers) == 1
    widest = max(k1 - k0 for _, groups in rounds for k0, k1 in groups)
    assert widest == 1 if chunk == 1 else widest > 1


# ---------------------------------------------------------------------------
# Hybrid sharding across a pool never changes a single bit.
# ---------------------------------------------------------------------------


def test_hybrid_bit_identical_across_worker_counts():
    """Per-rep seeds depend only on the global rep index, so any shard
    split — including the degenerate 1-shard batched path — reproduces the
    serial results exactly."""
    s = spec()
    expected = [summary(r) for r in scalar_reference(s, 9, base_seed=7)]
    for workers in (1, 2, 3, 5, None):
        got = [summary(r) for r in replicate(s, 9, base_seed=7, workers=workers)]
        assert got == expected, f"workers={workers}"


def test_hybrid_bit_identical_under_chunking():
    """User-axis chunk size is an execution detail: tiny chunks force the
    chunked kernel blocks without perturbing hybrid results."""
    from repro.core.memory import set_user_chunk

    s = spec(protocol_kwargs={"rate": {"name": "slack-proportional"}})
    expected = [summary(r) for r in scalar_reference(s, 6, base_seed=3)]
    previous = set_user_chunk(17)
    try:
        got = [summary(r) for r in replicate(s, 6, base_seed=3, workers=2)]
    finally:
        set_user_chunk(previous)
    assert got == expected


def test_hybrid_falls_back_on_unsupported_spec():
    s = spec(schedule="partition", schedule_kwargs={"k": 2})
    via_hybrid = replicate(s, 4, base_seed=3, workers=2)
    via_serial = scalar_reference(s, 4, base_seed=3)
    assert [summary(r) for r in via_hybrid] == [summary(r) for r in via_serial]


@pytest.mark.stress
def test_hybrid_beats_both_pure_legs_on_multicore():
    """At R=32 on >=2 cores, replicate over a pool (processes x batch)
    beats the scalar engine on the same pool outright and at least matches
    single-process batched."""
    import os
    from concurrent.futures import ProcessPoolExecutor

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
    key = spec_seed_key(s)
    seeds = [rep_seed(0, key, i) for i in range(reps)]

    def scalar_pool():
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_spec, [s] * reps, seeds, chunksize=reps // (4 * workers)))

    best, results = time_legs(
        {
            "pool": scalar_pool,
            "batched": lambda: replicate_batched(s, reps, base_seed=0),
            "hybrid": lambda: replicate(s, reps, base_seed=0, workers=workers),
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
    yields identical trajectories on both engines."""
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
