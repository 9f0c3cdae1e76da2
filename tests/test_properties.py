"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.feasibility import greedy_assignment, max_satisfied, segment_dp_assignment
from repro.core.instance import AccessMap, Instance
from repro.core.latency import (
    AffineLatency,
    CapacityLatency,
    IdentityLatency,
    LatencyProfile,
    MM1Latency,
    PolynomialLatency,
    SpeedScaledLatency,
    TableLatency,
)
from repro.core.potential import overload_potential
from repro.core.protocols import PermitProtocol, QoSSamplingProtocol
from repro.core.state import State

from conftest import step_moves
from oracles import (
    brute_force_assignment,
    certify_satisfying,
    certify_stable,
    max_satisfied_brute_force,
)

COMMON = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

latency_functions = st.one_of(
    st.just(IdentityLatency()),
    st.floats(0.25, 8.0).map(SpeedScaledLatency),
    st.tuples(st.floats(0.1, 4.0), st.floats(0.0, 3.0)).map(
        lambda t: AffineLatency(*t)
    ),
    st.tuples(st.floats(0.2, 2.0), st.integers(1, 3)).map(
        lambda t: PolynomialLatency(coeff=t[0], degree=t[1])
    ),
    st.floats(1.5, 20.0).map(MM1Latency),
    st.integers(0, 10).map(CapacityLatency),
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8).map(
        lambda xs: TableLatency(sorted(xs))
    ),
)

tiny_instances = st.builds(
    lambda qs, m: Instance.identical_machines(np.asarray(qs, dtype=np.float64), m),
    st.lists(st.integers(1, 7).map(float), min_size=1, max_size=6),
    st.integers(1, 3),
)


@COMMON
@given(f=latency_functions, q=st.floats(0.0, 25.0))
def test_capacity_is_the_exact_inverse(f, q):
    cap = f.capacity(q)
    if cap < 0:
        assert f(0) > q
    else:
        cap = min(cap, 1000)
        assert f(cap) <= q + 1e-7
        if cap < 1000:
            assert f(cap + 1) > q


@COMMON
@given(f=latency_functions, xs=st.lists(st.integers(0, 40), min_size=1, max_size=20))
def test_latency_monotone_and_vectorization_consistent(f, xs):
    xs_sorted = np.asarray(sorted(xs), dtype=np.float64)
    vals = f(xs_sorted)
    with np.errstate(invalid="ignore"):
        diffs = np.diff(vals)
    assert np.all((diffs >= -1e-9) | np.isnan(diffs))
    for x, v in zip(xs_sorted, vals):
        scalar = f(float(x))
        assert (np.isinf(scalar) and np.isinf(v)) or scalar == v


@COMMON
@given(inst=tiny_instances, data=st.data())
def test_loads_always_match_assignment_under_random_migrations(inst, data):
    rng = np.random.default_rng(0)
    state = State.uniform_random(inst, rng)
    n, m = inst.n_users, inst.n_resources
    for _ in range(5):
        k = data.draw(st.integers(0, n))
        users = data.draw(
            st.lists(
                st.integers(0, n - 1), min_size=k, max_size=k, unique=True
            )
        )
        targets = data.draw(
            st.lists(st.integers(0, m - 1), min_size=k, max_size=k)
        )
        state.apply_migrations(
            np.asarray(users, dtype=np.int64), np.asarray(targets, dtype=np.int64)
        )
        state.check_invariants()
        assert state.loads.sum() == inst.n_users


@COMMON
@given(inst=tiny_instances)
def test_greedy_matches_brute_force(inst):
    greedy = greedy_assignment(inst)
    brute = brute_force_assignment(inst)
    assert greedy.exact
    assert greedy.feasible == brute.feasible


@COMMON
@given(
    qs=st.lists(st.integers(1, 7).map(float), min_size=1, max_size=5),
    fns=st.lists(latency_functions, min_size=1, max_size=3),
)
def test_segment_dp_matches_brute_force_on_arbitrary_profiles(qs, fns):
    inst = Instance(
        thresholds=np.asarray(qs, dtype=np.float64),
        latencies=LatencyProfile(fns),
    )
    dp = segment_dp_assignment(inst)
    brute = brute_force_assignment(inst)
    assert dp.feasible == brute.feasible
    if dp.feasible:
        assert dp.state is not None and dp.state.is_satisfying()


@COMMON
@given(inst=tiny_instances)
def test_max_satisfied_matches_brute_force(inst):
    exact = max_satisfied(inst)
    brute = max_satisfied_brute_force(inst)
    assert exact.exact
    assert exact.n_satisfied == brute.n_satisfied


@COMMON
@given(inst=tiny_instances, seed=st.integers(0, 2**16))
def test_overload_potential_zero_iff_satisfying(inst, seed):
    state = State.uniform_random(inst, np.random.default_rng(seed))
    assert (overload_potential(state) == 0) == state.is_satisfying()


@COMMON
@given(inst=tiny_instances, seed=st.integers(0, 2**16))
def test_permit_monotone_satisfaction(inst, seed):
    rng = np.random.default_rng(seed)
    state = State.uniform_random(inst, rng)
    proto = PermitProtocol()
    proto.reset(inst, rng)
    prev = state.satisfied_mask().copy()
    for _ in range(12):
        proto.step(state, np.ones(inst.n_users, dtype=bool), rng)
        sat = state.satisfied_mask()
        assert not np.any(prev & ~sat)
        prev = sat.copy()


@COMMON
@given(inst=tiny_instances, seed=st.integers(0, 2**16))
def test_sampling_proposals_are_always_valid(inst, seed):
    rng = np.random.default_rng(seed)
    state = State.uniform_random(inst, rng)
    proto = QoSSamplingProtocol()
    proto.reset(inst, rng)
    sat_before = state.satisfied_mask()
    users, targets, outcome = step_moves(proto, state, np.ones(inst.n_users, dtype=bool), rng)
    assert outcome.n_attempted == outcome.n_moved == users.size
    if users.size:
        assert not sat_before[users].any()
        assert state.would_satisfy(users, targets).all()


@COMMON
@given(
    n=st.integers(1, 6),
    m=st.integers(1, 4),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_access_map_sampling_stays_allowed(n, m, seed, data):
    allowed = [
        sorted(
            data.draw(
                st.lists(
                    st.integers(0, m - 1), min_size=1, max_size=m, unique=True
                )
            )
        )
        for _ in range(n)
    ]
    access = AccessMap(allowed, m)
    rng = np.random.default_rng(seed)
    users = np.asarray(list(range(n)) * 10, dtype=np.int64)
    samples = access.sample(users, rng)
    for u, r in zip(users, samples):
        assert int(r) in allowed[int(u)]


@COMMON
@given(inst=tiny_instances, seed=st.integers(0, 2**16))
def test_engine_runs_are_reproducible(inst, seed):
    from repro.sim.engine import run

    a = run(inst, QoSSamplingProtocol(), seed=seed, initial="pile", max_rounds=200)
    b = run(inst, QoSSamplingProtocol(), seed=seed, initial="pile", max_rounds=200)
    assert a.status == b.status
    assert a.rounds == b.rounds
    assert a.total_moves == b.total_moves


@COMMON
@given(
    m=st.integers(1, 12),
    theta=st.floats(0.01, 0.9),
    p=st.floats(0.05, 1.0),
    steps=st.integers(1, 30),
)
def test_fluid_map_conserves_mass_and_positivity(m, theta, p, steps):
    from repro.fluid.model import FluidSystem

    system = FluidSystem(
        m=m,
        thetas=np.asarray([theta]),
        masses=np.asarray([1.0]),
        p=p,
    )
    x = system.pile_state()
    for _ in range(steps):
        x = system.step(x)
        assert abs(x.sum() - 1.0) < 1e-9
        assert np.all(x >= -1e-12)


@COMMON
@given(
    values=st.lists(
        st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=50
    )
)
def test_sparkline_length_matches_input(values):
    from repro.viz import sparkline

    assert len(sparkline(values)) == len(values)


@COMMON
@given(inst=tiny_instances, seed=st.integers(0, 2**16))
def test_certifiers_agree_with_fast_paths(inst, seed):
    from repro.core.stability import is_stable

    state = State.uniform_random(inst, np.random.default_rng(seed))
    ok_sat, _ = certify_satisfying(state)
    assert ok_sat == state.is_satisfying()
    ok_stable, _ = certify_stable(state)
    assert ok_stable == is_stable(state)
