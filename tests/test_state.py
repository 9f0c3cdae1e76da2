"""Unit tests for State: loads, satisfaction queries, migrations."""

import numpy as np
import pytest

from repro.core.instance import AccessMap, Instance
from repro.core.latency import LatencyProfile
from repro.core.state import State

from conftest import assert_valid_state


def test_loads_match_assignment(small_uniform):
    state = State(small_uniform, np.asarray([0] * 6 + [1] * 3 + [2] * 3))
    assert list(state.loads) == [6, 3, 3, 0]
    assert_valid_state(state)


def test_assignment_validation(small_uniform):
    with pytest.raises(ValueError):
        State(small_uniform, np.zeros(5, dtype=np.int64))
    with pytest.raises(ValueError):
        State(small_uniform, np.full(12, 7, dtype=np.int64))


def test_access_enforced():
    inst = Instance(
        thresholds=np.asarray([2.0, 2.0]),
        latencies=LatencyProfile.identical(2),
        access=AccessMap([[0], [1]], 2),
    )
    with pytest.raises(ValueError):
        State(inst, np.asarray([1, 1]))
    state = State(inst, np.asarray([0, 1]))
    assert_valid_state(state)


def test_satisfaction_queries(small_uniform):
    # loads: r0=6 (> q=4, unsat), r1=3, r2=3.
    state = State(small_uniform, np.asarray([0] * 6 + [1] * 3 + [2] * 3))
    mask = state.satisfied_mask()
    assert not mask[:6].any()
    assert mask[6:].all()
    assert state.n_satisfied == 6
    assert state.n_unsatisfied == 6
    assert not state.is_satisfying()
    assert list(np.flatnonzero(~mask)) == list(range(6))


def test_would_satisfy_semantics(small_uniform):
    state = State(small_uniform, np.asarray([0] * 6 + [1] * 3 + [2] * 3))
    users = np.asarray([0, 0, 0])
    targets = np.asarray([1, 3, 0])
    out = state.would_satisfy(users, targets)
    # r1: 3+1=4 <= 4 OK; r3: 0+1 <= 4 OK; own resource r0: load stays 6 > 4.
    assert list(out) == [True, True, False]


def test_would_satisfy_own_resource_no_self_weight(small_uniform):
    # A satisfied user probing its own resource sees its current latency.
    state = State(small_uniform, np.asarray([0] * 4 + [1] * 4 + [2] * 4))
    out = state.would_satisfy(np.asarray([0]), np.asarray([0]))
    assert out[0]  # load 4 <= q=4 — would be False if it double-counted


def test_would_satisfy_weighted():
    inst = Instance(
        thresholds=np.asarray([4.0, 4.0]),
        latencies=LatencyProfile.identical(2),
        weights=np.asarray([3.0, 2.0]),
    )
    state = State(inst, np.asarray([0, 0]))  # load r0 = 5
    # user 0 (w=3) moving to empty r1: 0+3 <= 4 OK; user 1 (w=2): 0+2 <= 4 OK.
    assert list(state.would_satisfy(np.asarray([0, 1]), np.asarray([1, 1]))) == [
        True,
        True,
    ]
    # back on r0 the remaining load after a hypothetical... own-resource probe
    # keeps the full load 5 > 4:
    assert not state.would_satisfy(np.asarray([0]), np.asarray([0]))[0]


def test_apply_migrations_simultaneous(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    users = np.arange(8)
    targets = np.asarray([1, 1, 1, 2, 2, 2, 3, 3])
    moved = state.apply_migrations(users, targets)
    assert moved == 8
    assert list(state.loads) == [4, 3, 3, 2]
    assert_valid_state(state)


def test_apply_migrations_ignores_self_moves(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    moved = state.apply_migrations(np.asarray([0, 1]), np.asarray([0, 1]))
    assert moved == 1
    assert state.loads[1] == 1


def test_apply_migrations_duplicate_user_rejected(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    with pytest.raises(ValueError):
        state.apply_migrations(np.asarray([0, 0]), np.asarray([1, 2]))


def _assert_rejected_untouched(state, users, targets):
    before = (state.assignment.copy(), state.loads.copy(), state.version)
    with pytest.raises(ValueError, match="at most once"):
        state.apply_migrations(users, targets)
    np.testing.assert_array_equal(state.assignment, before[0])
    np.testing.assert_array_equal(state.loads, before[1])
    assert state.version == before[2]


def test_apply_migrations_duplicate_at_end_of_sorted_batch(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    _assert_rejected_untouched(
        state, np.asarray([1, 4, 6, 9, 11, 11]), np.asarray([1, 2, 3, 1, 2, 3])
    )


def test_apply_migrations_duplicate_in_unsorted_batch(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    _assert_rejected_untouched(
        state, np.asarray([7, 2, 9, 0, 2, 5]), np.asarray([1, 1, 2, 2, 3, 3])
    )


def test_apply_migrations_one_duplicate_among_many_movers():
    n = 100_001
    inst = Instance.identical_machines(np.full(n, 64.0), 4096)
    state = State(inst, np.zeros(n, dtype=np.int64))
    rng = np.random.default_rng(3)
    users = rng.permutation(n)[:100_000]
    users = np.insert(users, 54_321, users[12_345])
    targets = rng.integers(1, inst.n_resources, size=users.size)
    _assert_rejected_untouched(state, users, targets)


def test_apply_migrations_accepts_distinct_unsorted_movers(small_uniform):
    # permit proposes movers grouped by target segment, not sorted by user
    state = State(small_uniform, np.asarray([0] * 12))
    users = np.asarray([7, 2, 9, 0, 11, 5])
    targets = np.asarray([1, 1, 2, 2, 3, 3])
    assert state.apply_migrations(users, targets) == 6
    np.testing.assert_array_equal(state.assignment[users], targets)
    assert_valid_state(state)


def _explicit_satisfied(state):
    return state.resource_latencies()[state.assignment] <= state.instance.thresholds


def test_satisfied_mask_uniform_threshold_tie():
    # r1 carries load 4 == q exactly: its users are satisfied (<=, not <).
    inst = Instance.identical_machines(np.full(12, 4.0), 4)
    assert inst.uniform_thresholds
    state = State(inst, np.asarray([0] * 5 + [1] * 4 + [2] * 3))
    assert state.resource_latencies()[1] == 4.0
    mask = state.satisfied_mask()
    np.testing.assert_array_equal(mask, _explicit_satisfied(state))
    assert mask[5:9].all() and not mask[:5].any()
    # r0 drops to the tie, r1 overshoots; the cached mask must follow.
    state.apply_migrations(np.asarray([0]), np.asarray([1]))
    mask = state.satisfied_mask()
    np.testing.assert_array_equal(mask, _explicit_satisfied(state))
    assert mask[1:5].all() and not mask[[0, 5, 6, 7, 8]].any()


def test_satisfied_mask_non_uniform_thresholds():
    thresholds = np.asarray([3.0, 4.0, 2.0, 5.0, 4.0, 3.0, 1.0, 2.0])
    inst = Instance.identical_machines(thresholds, 3)
    assert not inst.uniform_thresholds
    state = State(inst, np.asarray([0, 0, 0, 1, 1, 1, 1, 2]))
    np.testing.assert_array_equal(state.satisfied_mask(), _explicit_satisfied(state))
    state.apply_migrations(np.asarray([3, 6]), np.asarray([2, 2]))
    np.testing.assert_array_equal(state.satisfied_mask(), _explicit_satisfied(state))


def test_apply_migrations_empty(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    assert state.apply_migrations(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)) == 0


def _access_instance():
    return Instance(
        thresholds=np.asarray([4.0, 4.0, 4.0]),
        latencies=LatencyProfile.identical(3),
        access=AccessMap([[0, 1], [1, 2], [2]], 3),
    )


def test_apply_migrations_rejects_inaccessible_target():
    state = State(_access_instance(), np.asarray([0, 1, 2]))
    # user 0 may reach {0, 1}; resource 2 is forbidden.
    with pytest.raises(ValueError, match="inaccessible"):
        state.apply_migrations(np.asarray([0]), np.asarray([2]))
    # a valid batch must not be rejected
    assert state.apply_migrations(np.asarray([0, 1]), np.asarray([1, 2])) == 2
    assert_valid_state(state)


def test_apply_migrations_rejects_mixed_batch_atomically():
    state = State(_access_instance(), np.asarray([0, 1, 2]))
    before = state.assignment.copy()
    with pytest.raises(ValueError, match="inaccessible"):
        # user 1 -> 2 is legal, user 2 -> 0 is not: nothing may be applied
        state.apply_migrations(np.asarray([1, 2]), np.asarray([2, 0]))
    np.testing.assert_array_equal(state.assignment, before)
    assert_valid_state(state)


def test_apply_migrations_rejects_out_of_range_user(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    # negative user indices used to wrap around silently
    with pytest.raises(ValueError, match="user index out of range"):
        state.apply_migrations(np.asarray([-1]), np.asarray([1]))
    with pytest.raises(ValueError, match="user index out of range"):
        state.apply_migrations(np.asarray([12]), np.asarray([1]))


def test_apply_migrations_rejects_out_of_range_target(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    with pytest.raises(ValueError, match="out-of-range resource"):
        state.apply_migrations(np.asarray([0]), np.asarray([4]))
    with pytest.raises(ValueError, match="out-of-range resource"):
        state.apply_migrations(np.asarray([0]), np.asarray([-1]))


def test_move_user_rejects_inaccessible_target():
    state = State(_access_instance(), np.asarray([0, 1, 2]))
    with pytest.raises(ValueError, match="inaccessible"):
        state.move_user(0, 2)
    assert state.move_user(0, 1)
    assert_valid_state(state)


def test_move_user_rejects_out_of_range_user(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    # user -1 used to wrap to user 11 and corrupt its load accounting
    with pytest.raises(ValueError, match="user out of range"):
        state.move_user(-1, 1)
    with pytest.raises(ValueError, match="user out of range"):
        state.move_user(12, 1)
    assert_valid_state(state)


def test_move_user(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    assert state.move_user(3, 2)
    assert not state.move_user(3, 2)  # already there
    assert state.loads[2] == 1
    with pytest.raises(ValueError):
        state.move_user(3, 9)
    assert_valid_state(state)


def test_uniform_random_respects_access(rng):
    inst = Instance(
        thresholds=np.asarray([2.0, 2.0, 2.0]),
        latencies=LatencyProfile.identical(3),
        access=AccessMap([[0], [1, 2], [2]], 3),
    )
    for _ in range(20):
        state = State.uniform_random(inst, rng)
        assert_valid_state(state)


def test_worst_case_pile(small_uniform):
    state = State.worst_case_pile(small_uniform, resource=2)
    assert state.loads[2] == 12
    assert state.n_satisfied == 0
    with pytest.raises(ValueError):
        State.worst_case_pile(small_uniform, resource=9)


def test_worst_case_pile_with_access():
    inst = Instance(
        thresholds=np.asarray([2.0, 2.0]),
        latencies=LatencyProfile.identical(2),
        access=AccessMap([[0], [0, 1]], 2),
    )
    state = State.worst_case_pile(inst, resource=1)
    # user 0 cannot reach resource 1; it lands on its first accessible one.
    assert state.assignment[0] == 0
    assert state.assignment[1] == 1


@pytest.mark.parametrize("generator", ["random_access", "sparse_access"])
@pytest.mark.parametrize("resource", [0, 5, 15])
def test_worst_case_pile_with_access_matches_per_user_rule(generator, resource):
    """Every user piles on ``resource`` when its slice holds it, else on its
    smallest accessible resource — checked user by user."""
    from repro.registry import build_instance

    inst = build_instance(generator, n=300, m=16, degree=3, rng=4)
    access = inst.access
    expected = [
        resource if resource in access.allowed(u) else int(access.allowed(u)[0])
        for u in range(inst.n_users)
    ]
    state = State.worst_case_pile(inst, resource=resource)
    assert state.assignment.tolist() == expected
    assert 0 < expected.count(resource) < inst.n_users  # both branches taken
    assert_valid_state(state)


def test_copy_is_independent(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    clone = state.copy()
    clone.move_user(0, 1)
    assert state.loads[1] == 0
    assert clone.loads[1] == 1
    assert state != clone
    assert state == State(small_uniform, np.asarray([0] * 12))


def test_state_unhashable(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    with pytest.raises(TypeError):
        hash(state)


def test_check_invariants_catches_corruption(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    state.loads[0] -= 1  # corrupt
    with pytest.raises(AssertionError):
        state.check_invariants()
