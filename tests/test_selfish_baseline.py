"""SelfishRebalanceProtocol and centralized baselines."""

import numpy as np
import pytest

from repro.baselines.centralized import optimal_assignment
from repro.baselines.selfish import SelfishRebalanceProtocol
from repro.core.instance import AccessMap, Instance
from repro.core.latency import LatencyProfile
from repro.core.state import State
from repro.sim.engine import run
from repro.workloads.generators import overloaded, uniform_slack

from oracles import is_latency_nash


class TestSelfishRebalance:
    def test_balances_identical_machines(self):
        # Drive the protocol directly (the engine would stop immediately:
        # with huge thresholds every state is satisfying) until it reaches
        # a latency Nash — near-balanced loads on identical machines.
        inst = Instance.identical_machines([999.0] * 64, 8)
        rng = np.random.default_rng(3)
        state = State.worst_case_pile(inst)
        proto = SelfishRebalanceProtocol()
        proto.reset(inst, rng)
        for _ in range(5000):
            proto.step(state, np.ones(64, dtype=bool), rng)
            if proto.is_quiescent(state):
                break
        assert is_latency_nash(state)
        assert state.loads.max() - state.loads.min() <= 1

    def test_quiescent_exactly_at_latency_nash(self):
        inst = Instance.identical_machines([999.0] * 8, 4)
        proto = SelfishRebalanceProtocol()
        balanced = State(inst, np.asarray([0, 0, 1, 1, 2, 2, 3, 3]))
        assert proto.is_quiescent(balanced)
        pile = State.worst_case_pile(inst)
        assert not proto.is_quiescent(pile)

    def test_quiescence_with_access_map(self):
        inst = Instance(
            thresholds=np.asarray([9.0, 9.0]),
            latencies=LatencyProfile.identical(2),
            access=AccessMap([[0], [0, 1]], 2),
        )
        proto = SelfishRebalanceProtocol()
        state = State(inst, np.asarray([0, 1]))
        assert proto.is_quiescent(state)
        both = State(inst, np.asarray([0, 0]))
        assert not proto.is_quiescent(both)

    def test_oblivious_collapse_under_overload(self):
        inst = overloaded(48, 4, 4.0)  # 48 users, capacity 16
        result = run(
            inst,
            SelfishRebalanceProtocol(),
            seed=2,
            initial="pile",
            max_rounds=5000,
        )
        # balanced loads ~12 > q = 4: nobody satisfied
        assert result.n_satisfied <= 4

    def test_min_gap_validation(self):
        with pytest.raises(ValueError):
            SelfishRebalanceProtocol(min_gap=-0.1)


class TestCentralizedBaselines:
    def test_optimal_assignment_on_feasible(self):
        inst = uniform_slack(100, 8, 0.2)
        state = optimal_assignment(inst)
        assert state.is_satisfying()

    def test_optimal_assignment_raises_on_infeasible(self):
        inst = overloaded(100, 4, 10.0)
        with pytest.raises(ValueError):
            optimal_assignment(inst)

    def test_optimal_assignment_uses_dp_when_greedy_fails(self):
        inst = Instance.related_machines([3.0, 3.0, 1.0], [2.0, 0.5])
        state = optimal_assignment(inst)
        assert state.is_satisfying()
