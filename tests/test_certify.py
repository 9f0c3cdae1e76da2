"""Certificate checkers: the slow oracles agree with the fast paths."""

import numpy as np
import pytest

from oracles import (
    certify_assignment_counts,
    certify_max_satisfied_witness,
    certify_satisfying,
    certify_stable,
)
from repro.core.feasibility import max_satisfied
from repro.core.stability import is_stable
from repro.core.state import State
from repro.sim.engine import run
from repro.core.protocols import QoSSamplingProtocol

from conftest import random_small_instance


def test_counts_certificate_on_random_states():
    rng = np.random.default_rng(2)
    for _ in range(30):
        inst = random_small_instance(rng)
        state = State.uniform_random(inst, rng)
        ok, issues = certify_assignment_counts(state)
        assert ok, issues


def test_counts_certificate_catches_corruption(small_uniform):
    state = State(small_uniform, np.asarray([0] * 12))
    state.loads[1] += 1  # corrupt
    ok, issues = certify_assignment_counts(state)
    assert not ok and issues


def test_satisfying_certificate_matches_fast_path():
    rng = np.random.default_rng(5)
    for _ in range(40):
        inst = random_small_instance(rng)
        state = State.uniform_random(inst, rng)
        ok, _ = certify_satisfying(state)
        assert ok == state.is_satisfying()


@pytest.mark.parametrize("polite", [False, True])
def test_stability_certificate_matches_fast_path(polite):
    rng = np.random.default_rng(7)
    for _ in range(40):
        inst = random_small_instance(rng)
        state = State.uniform_random(inst, rng)
        ok, _ = certify_stable(state, polite=polite)
        assert ok == is_stable(state, polite=polite)


def test_engine_final_states_certify(small_uniform):
    result = run(
        small_uniform, QoSSamplingProtocol(), seed=3, initial="pile",
        keep_state=True,
    )
    ok, issues = certify_satisfying(result.final_state)
    assert ok, issues


def test_trap_certifies_stable(trap_state):
    ok, _ = certify_stable(trap_state)
    assert ok
    sat_ok, sat_issues = certify_satisfying(trap_state)
    assert not sat_ok and sat_issues


def test_opt_sat_witness_certificate():
    rng = np.random.default_rng(11)
    for _ in range(20):
        inst = random_small_instance(rng, max_n=6, max_m=3, max_q=5)
        result = max_satisfied(inst)
        assert result.exact
        ok, issues = certify_max_satisfied_witness(inst, result)
        assert ok, (inst.thresholds, issues)


def test_opt_sat_witness_certificate_flags_bad_claim(small_uniform):
    from repro.core.feasibility import MaxSatisfiedResult

    state = State.worst_case_pile(small_uniform)  # satisfies nobody
    bogus = MaxSatisfiedResult(
        n_satisfied=12, exact=True, method="bogus", state=state
    )
    ok, issues = certify_max_satisfied_witness(small_uniform, bogus)
    assert not ok and issues
