"""PermitProtocol: monotonicity, grant sizing, quiescence."""

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.protocols.permit import PermitProtocol
from repro.core.stability import is_stable, satisfied_resident_min
from repro.core.state import State

from conftest import assert_valid_state, random_small_instance, step_moves


def test_monotone_satisfaction_on_random_runs():
    """The satisfied set never shrinks under the permit protocol."""
    rng = np.random.default_rng(71)
    for _ in range(40):
        inst = random_small_instance(rng, max_n=10, max_m=4, max_q=8)
        state = State.uniform_random(inst, rng)
        proto = PermitProtocol()
        proto.reset(inst, rng)
        prev_sat = state.satisfied_mask().copy()
        for _ in range(60):
            proto.step(state, np.ones(inst.n_users, dtype=bool), rng)
            sat = state.satisfied_mask()
            # monotone as a *set*: nobody satisfied before is unsatisfied now
            assert not np.any(prev_sat & ~sat), (inst.thresholds, state.assignment)
            prev_sat = sat.copy()
        assert_valid_state(state)


def test_grants_respect_resident_minimum(small_uniform, rng):
    # r0 holds a full complement (load 4 = q): no grant may be issued to it.
    state = State(small_uniform, np.asarray([0, 0, 0, 0] + [1] * 8))
    proto = PermitProtocol()
    proto.reset(small_uniform, rng)
    for _ in range(40):
        _, targets, _ = step_moves(proto, state, np.ones(12, dtype=bool), rng)
        assert not np.any(targets == 0)


def test_grant_size_limited_by_capacity(rng):
    # 8 unsatisfied users all want the one empty resource with q = 3:
    # at most 3 may be granted in a single round.
    inst = Instance.identical_machines([3.0] * 8, 2)
    state = State(inst, np.asarray([0] * 8))
    proto = PermitProtocol()
    proto.reset(inst, rng)
    for _ in range(20):
        _, targets, _ = step_moves(proto, state, np.ones(8, dtype=bool), rng)
        to_r1 = int(np.count_nonzero(targets == 1))
        assert to_r1 <= 3


def test_grants_prefer_high_thresholds(rng):
    # Probers q = [5, 1]: a grant pair would bind at q = 1, so only the
    # q = 5 prober can be admitted once load reaches 1.
    inst = Instance.identical_machines([5.0, 5.0, 5.0, 5.0, 1.0], 2)
    # All on r0 (load 5): q=1 and q=5 users unsatisfied (5 > 5? no — 5 <= 5).
    # Put 6th... simpler: load 5 on r0 means q=5 users are satisfied.  Use
    # thresholds 4 instead:
    inst = Instance.identical_machines([4.0, 4.0, 4.0, 4.0, 1.0], 2)
    state = State(inst, np.asarray([0] * 5))  # load 5 > 4 and > 1: all unsat
    proto = PermitProtocol()
    proto.reset(inst, rng)
    granted_q = []
    for _ in range(200):
        users, _, _ = step_moves(proto, state, np.ones(5, dtype=bool), rng)
        granted_q.extend(inst.thresholds[users].tolist())
    # The q=1 user can only be granted alone at load 0; whenever it is
    # granted together with others the high thresholds went first, and the
    # grant including q=1 at load 0 is fine (1 <= 1).  What must never
    # happen: a grant of size >= 2 whose minimum is 1 (ell(2) = 2 > 1).
    # Check via a direct property instead: re-step and inspect batches.
    for _ in range(100):
        users, _, _ = step_moves(proto, state, np.ones(5, dtype=bool), rng)
        if users.size >= 2:
            qs = inst.thresholds[users]
            # all granted users would be satisfied at the batched load:
            assert np.min(qs) >= users.size


def test_phases_attribute():
    assert PermitProtocol.phases == 2


def test_quiescent_at_polite_stable_states(rng):
    # Polite-stable but selfishly unstable state (from test_stability).
    inst = Instance.identical_machines(np.asarray([1.0, 2.0, 9.0, 9.0]), 2)
    state = State(inst, np.asarray([1, 0, 0, 0]))
    proto = PermitProtocol()
    proto.reset(inst, rng)
    assert is_stable(state, polite=True) and not is_stable(state)
    assert proto.is_quiescent(state) is True
    # And indeed it never issues a grant there.
    for _ in range(50):
        assert proto.step(state, np.ones(4, dtype=bool), rng).n_attempted == 0


def test_converges_fast_on_generous_instance(small_uniform, rng):
    state = State.worst_case_pile(small_uniform)
    proto = PermitProtocol()
    proto.reset(small_uniform, rng)
    for round_index in range(50):
        if state.is_satisfying():
            break
        proto.step(state, np.ones(12, dtype=bool), rng)
    assert state.is_satisfying()
    assert round_index < 20


def test_resident_min_consistency(small_uniform, rng):
    state = State(small_uniform, np.asarray([0] * 6 + [1] * 6))
    res_min = satisfied_resident_min(state)
    assert np.isinf(res_min).all()  # nobody satisfied at loads 6/6
    proto = PermitProtocol()
    proto.reset(small_uniform, rng)
    _, targets, _ = step_moves(proto, state, np.ones(12, dtype=bool), rng)
    # Grants to the two empty resources are possible and bounded by q = 4.
    for r in (2, 3):
        assert int(np.count_nonzero(targets == r)) <= 4
