"""Differential tests: cached and uncached state queries are bit-identical.

The tentpole performance layer memoizes ``State.resource_latencies`` /
``user_latencies`` / ``satisfied_mask`` behind a generation counter and
vectorizes several per-user loops.  None of that may change *any* result:
the equivalence is enforced, not assumed, by running the same seeds with
the cache enabled and disabled over a protocol × schedule × topology grid
and requiring identical ``RunResult.summary()`` dicts (same statuses,
rounds, moves, messages) and identical trajectories.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.state import CACHING, State, caching_disabled
from repro.sim.engine import run
from repro.sim.metrics import Recorder
from repro.sim.parallel import RunSpec, replicate, run_spec

# protocol name -> protocol kwargs (registry names; built per run)
PROTOCOL_GRID = [
    ("qos-sampling", {}),
    ("qos-sampling", {"rate": {"name": "slack-proportional"}}),
    ("qos-sampling", {"rate": {"name": "adaptive-backoff"}}),
    ("multi-probe", {"d": 2}),
    ("permit", {}),
    ("best-response", {}),
    ("sweep-best-response", {}),
    ("sweep-best-response", {"polite": False}),
    ("naive-greedy", {}),
    ("blind-random", {}),
    ("neighborhood", {"topology": "ring", "m": 8}),
]

SCHEDULE_GRID = [
    ("synchronous", {}),
    ("alpha", {"alpha": 0.5}),
]

# generator name -> kwargs; covers unit weights, weighted users, and an
# access topology (the constrained-assignment code paths).
GENERATOR_GRID = [
    ("uniform_slack", {"n": 96, "m": 8, "slack": 0.25}),
    ("weighted_uniform", {"n": 96, "m": 8}),
    ("random_access", {"n": 96, "m": 8, "degree": 4}),
]


def _summary(spec: RunSpec, seed: int) -> dict:
    return run_spec(spec, seed).summary()


@pytest.mark.parametrize("protocol,protocol_kwargs", PROTOCOL_GRID)
@pytest.mark.parametrize("schedule,schedule_kwargs", SCHEDULE_GRID)
@pytest.mark.parametrize("generator,generator_kwargs", GENERATOR_GRID)
def test_cached_and_uncached_runs_bit_identical(
    protocol, protocol_kwargs, schedule, schedule_kwargs, generator, generator_kwargs
):
    spec = RunSpec(
        generator=generator,
        generator_kwargs=generator_kwargs,
        protocol=protocol,
        protocol_kwargs=protocol_kwargs,
        schedule=schedule,
        schedule_kwargs=schedule_kwargs,
        max_rounds=300,
        initial="pile",
    )
    assert CACHING.enabled
    cached = _summary(spec, seed=1234)
    with caching_disabled():
        uncached = _summary(spec, seed=1234)
    assert CACHING.enabled
    assert cached == uncached


def test_cached_and_uncached_trajectories_identical(small_uniform):
    from repro.core.potential import unsatisfied_count
    from repro.registry import build_protocol

    def one(cache: bool):
        recorder = Recorder(potentials={"unsat": unsatisfied_count}, snapshot_every=2)
        if cache:
            result = run(
                small_uniform,
                build_protocol("qos-sampling"),
                seed=7,
                initial="pile",
                recorder=recorder,
            )
        else:
            with caching_disabled():
                result = run(
                    small_uniform,
                    build_protocol("qos-sampling"),
                    seed=7,
                    initial="pile",
                    recorder=recorder,
                )
        return result

    a, b = one(True), one(False)
    assert a.summary() == b.summary()
    np.testing.assert_array_equal(a.trajectory.n_unsatisfied, b.trajectory.n_unsatisfied)
    np.testing.assert_array_equal(a.trajectory.n_moved, b.trajectory.n_moved)
    np.testing.assert_array_equal(
        a.trajectory.potentials["unsat"], b.trajectory.potentials["unsat"]
    )
    assert sorted(a.trajectory.load_snapshots) == sorted(b.trajectory.load_snapshots)
    for k in a.trajectory.load_snapshots:
        np.testing.assert_array_equal(
            a.trajectory.load_snapshots[k], b.trajectory.load_snapshots[k]
        )


def test_replicate_equivalence_with_events_cell(small_uniform):
    """Replicated seeds, cached vs uncached, via the replicate() path."""
    spec = RunSpec(
        generator="uniform_slack",
        generator_kwargs={"n": 64, "m": 8, "slack": 0.3},
        protocol="qos-sampling",
        initial="pile",
        max_rounds=2000,
    )
    cached = [r.summary() for r in replicate(spec, 4, base_seed=3)]
    with caching_disabled():
        uncached = [r.summary() for r in replicate(spec, 4, base_seed=3)]
    assert cached == uncached


def test_cache_invalidation_on_mutation(small_uniform):
    state = State.worst_case_pile(small_uniform)
    v0 = state.version
    mask0 = state.satisfied_mask()
    assert state.satisfied_mask() is mask0  # memoized
    assert not mask0.flags.writeable

    state.move_user(0, 1)
    assert state.version > v0
    mask1 = state.satisfied_mask()
    assert mask1 is not mask0

    state.apply_migrations(np.asarray([1, 2]), np.asarray([2, 3]))
    mask2 = state.satisfied_mask()
    assert mask2 is not mask1
    # recompute matches a fresh uncached evaluation
    with caching_disabled():
        np.testing.assert_array_equal(state.satisfied_mask(), mask2)


def test_cache_copy_isolation(small_uniform):
    """A copied state diverges without polluting the original's cache."""
    state = State.worst_case_pile(small_uniform)
    state.satisfied_mask()
    clone = state.copy()
    clone.move_user(0, 1)
    state.move_user(0, 2)
    with caching_disabled():
        expected_state = state.satisfied_mask().copy()
        expected_clone = clone.satisfied_mask().copy()
    np.testing.assert_array_equal(state.satisfied_mask(), expected_state)
    np.testing.assert_array_equal(clone.satisfied_mask(), expected_clone)


@pytest.mark.parametrize("generator,generator_kwargs", GENERATOR_GRID)
@pytest.mark.parametrize("polite", [False, True])
def test_blocked_mask_cached_equals_uncached(generator, generator_kwargs, polite):
    """blocked_mask memoization is invisible: same bits, frozen, invalidated."""
    from repro.core.stability import blocked_mask
    from repro.registry import build_instance

    inst = build_instance(generator, **generator_kwargs)
    state = State.worst_case_pile(inst)
    cached = blocked_mask(state, polite=polite)
    assert not cached.flags.writeable
    assert blocked_mask(state, polite=polite) is cached  # memoized
    with caching_disabled():
        uncached = blocked_mask(state, polite=polite)
    np.testing.assert_array_equal(cached, uncached)

    # The two flavours are cached under distinct keys.
    other = blocked_mask(state, polite=not polite)
    assert other is not cached

    if inst.access is None:
        target = 1
    else:
        allowed = inst.access.allowed(0)
        target = int(allowed[allowed != state.assignment[0]][0])
    state.move_user(0, target)
    fresh = blocked_mask(state, polite=polite)
    assert fresh is not cached
    with caching_disabled():
        np.testing.assert_array_equal(fresh, blocked_mask(state, polite=polite))


def test_potentials_cached_equals_uncached(small_uniform):
    from repro.core.potential import overload_potential

    state = State.worst_case_pile(small_uniform)
    cached = overload_potential(state)
    assert overload_potential(state) == cached  # memoized value is stable
    with caching_disabled():
        assert overload_potential(state) == cached

    before = overload_potential(state)
    state.move_user(0, 1)
    with caching_disabled():
        expected = overload_potential(state)
    after = overload_potential(state)
    assert after == expected
    # sanity: the move actually changed the potential (else the
    # invalidation assertion above would be vacuous)
    assert after != before


def test_invalidate_caches_contract(small_uniform):
    """Direct array mutation + invalidate_caches() yields fresh queries."""
    state = State.worst_case_pile(small_uniform)
    assert state.n_satisfied < 12
    # move everyone by hand (not through the mutators)
    state.assignment[:] = np.asarray([0, 1, 2, 3] * 3)
    state.loads[:] = np.asarray([3.0, 3.0, 3.0, 3.0])
    state.invalidate_caches()
    assert state.is_satisfying()
