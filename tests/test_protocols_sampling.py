"""QoSSamplingProtocol: information model, absorption, rate behaviour."""

import numpy as np
import pytest

from repro.core.protocols.rates import ConstantRate
from repro.core.protocols.sampling import QoSSamplingProtocol
from repro.core.state import State

from conftest import assert_valid_state, step_moves


def make_protocol(p=1.0, **kwargs):
    proto = QoSSamplingProtocol(rate=ConstantRate(p), **kwargs)
    return proto


def test_satisfying_states_are_absorbing(small_uniform, rng):
    state = State(small_uniform, np.asarray([0, 1, 2, 3] * 3))
    assert state.is_satisfying()
    proto = make_protocol()
    proto.reset(small_uniform, rng)
    before = state.assignment.copy()
    for _ in range(20):
        outcome = proto.step(state, np.ones(12, dtype=bool), rng)
        assert outcome.n_attempted == outcome.n_moved == 0
    assert np.array_equal(state.assignment, before)


def test_only_unsatisfied_users_propose(small_uniform, rng):
    state = State(small_uniform, np.asarray([0] * 6 + [1] * 3 + [2] * 3))
    proto = make_protocol()
    proto.reset(small_uniform, rng)
    for _ in range(30):
        users, _, _ = step_moves(proto, state, np.ones(12, dtype=bool), rng)
        assert set(users.tolist()).issubset(set(range(6)))


def test_proposals_pass_conservative_check(small_uniform, rng):
    state = State.worst_case_pile(small_uniform)
    proto = make_protocol()
    proto.reset(small_uniform, rng)
    for _ in range(30):
        users, targets, outcome = step_moves(proto, state, np.ones(12, dtype=bool), rng)
        # every commit is a real move to a target that passed the check
        assert outcome.n_attempted == outcome.n_moved == users.size
        if users.size:
            assert state.would_satisfy(users, targets).all()


def test_active_mask_respected(small_uniform, rng):
    state = State.worst_case_pile(small_uniform)
    proto = make_protocol()
    proto.reset(small_uniform, rng)
    active = np.zeros(12, dtype=bool)
    active[:3] = True
    for _ in range(20):
        users, _, _ = step_moves(proto, state, active, rng)
        assert set(users.tolist()).issubset({0, 1, 2})


def test_rate_damping_thins_proposals(small_uniform):
    state = State.worst_case_pile(small_uniform)
    counts = {}
    for p in (1.0, 0.25):
        rng = np.random.default_rng(7)
        proto = make_protocol(p)
        proto.reset(small_uniform, rng)
        total = 0
        for _ in range(200):
            total += step_moves(proto, state, np.ones(12, dtype=bool), rng)[2].n_attempted
        counts[p] = total
    assert counts[0.25] < 0.5 * counts[1.0]


def test_step_applies_simultaneously(small_uniform, rng):
    state = State.worst_case_pile(small_uniform)
    proto = make_protocol()
    proto.reset(small_uniform, rng)
    outcome = proto.step(state, np.ones(12, dtype=bool), rng)
    assert outcome.n_moved == outcome.n_attempted > 0
    assert_valid_state(state)


def test_overshoot_is_possible_with_p1(small_uniform):
    """With p = 1, concurrent arrivals can exceed the target's capacity —
    the phenomenon damping exists to control."""
    overshoot_seen = False
    for seed in range(30):
        rng = np.random.default_rng(seed)
        state = State.worst_case_pile(small_uniform)
        proto = make_protocol(1.0)
        proto.reset(small_uniform, rng)
        proto.step(state, np.ones(12, dtype=bool), rng)
        # q = 4: any load above 4 on a previously-empty target is overshoot.
        if np.any(state.loads[1:] > 4):
            overshoot_seen = True
            break
    assert overshoot_seen


def test_resample_on_self_reduces_wasted_probes(small_uniform):
    # From the pile, sampling one's own resource wastes the probe; the
    # resample flag should strictly increase the number of proposals in
    # expectation.  (Statistical test with a fixed seed.)
    totals = {}
    for flag in (False, True):
        rng = np.random.default_rng(11)
        proto = make_protocol(1.0, resample_on_self=flag)
        proto.reset(small_uniform, rng)
        state = State.worst_case_pile(small_uniform)
        totals[flag] = sum(
            step_moves(proto, state, np.ones(12, dtype=bool), rng)[2].n_attempted
            for _ in range(300)
        )
    assert totals[True] >= totals[False]


def test_describe_includes_rate(small_uniform):
    proto = QoSSamplingProtocol()
    d = proto.describe()
    assert d["name"].startswith("qos-sampling")
    assert d["rate"]["name"] == "const(0.5)"
    assert d["sequential"] is False


def test_quiescence_matches_selfish_stability(trap_state, rng):
    proto = make_protocol()
    proto.reset(trap_state.instance, rng)
    assert proto.is_quiescent(trap_state) is True
    pile = State.worst_case_pile(trap_state.instance)
    assert proto.is_quiescent(pile) is False
