"""MultiProbeProtocol: selection semantics and the d=2 effect."""

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.protocols.multiprobe import MultiProbeProtocol
from repro.core.protocols.rates import ConstantRate
from repro.core.state import State
from repro.sim.engine import run
from repro.workloads.generators import uniform_slack

from conftest import step_moves


def test_validation():
    with pytest.raises(ValueError):
        MultiProbeProtocol(d=0)


def test_phases_equals_d():
    assert MultiProbeProtocol(d=3).phases == 3


def test_proposals_valid_and_best_of_probes(small_uniform, rng):
    state = State.worst_case_pile(small_uniform)
    proto = MultiProbeProtocol(d=4, rate=ConstantRate(1.0))
    proto.reset(small_uniform, rng)
    for _ in range(20):
        users, targets, outcome = step_moves(proto, state, np.ones(12, dtype=bool), rng)
        assert outcome.n_attempted == outcome.n_moved == users.size
        if users.size:
            assert state.would_satisfy(users, targets).all()


def test_d_equal_m_finds_any_available_seat(rng):
    # With d = m the user effectively sees everything: from the pile it
    # must find the single free resource immediately.
    inst = Instance.identical_machines([2.0, 2.0, 2.0], 3)
    state = State(inst, np.asarray([0, 0, 0]))
    proto = MultiProbeProtocol(d=16, rate=ConstantRate(1.0))
    proto.reset(inst, rng)
    outcome = proto.step(state, np.ones(3, dtype=bool), rng)
    assert outcome.n_attempted == outcome.n_moved == 3  # everyone found a satisfying target


def test_satisfied_users_never_probe(small_uniform, rng):
    state = State(small_uniform, np.asarray([0, 1, 2, 3] * 3))
    proto = MultiProbeProtocol(d=2)
    proto.reset(small_uniform, rng)
    assert proto.step(state, np.ones(12, dtype=bool), rng).n_attempted == 0


def test_converges_and_d2_not_slower_than_d1():
    inst = uniform_slack(1024, 32, slack=0.05)
    rounds = {}
    for d in (1, 2):
        rs = []
        for seed in range(5):
            r = run(inst, MultiProbeProtocol(d=d), seed=seed, initial="pile")
            assert r.status == "satisfying"
            rs.append(r.rounds)
        rounds[d] = np.median(rs)
    assert rounds[2] <= rounds[1] + 1


def test_respects_access_maps(rng):
    from repro.core.instance import AccessMap
    from repro.core.latency import LatencyProfile

    inst = Instance(
        thresholds=np.asarray([2.0, 2.0, 2.0, 2.0]),
        latencies=LatencyProfile.identical(3),
        access=AccessMap([[0, 1], [0, 1], [1, 2], [1, 2]], 3),
    )
    state = State(inst, np.asarray([0, 0, 1, 1]))
    proto = MultiProbeProtocol(d=3, rate=ConstantRate(1.0))
    proto.reset(inst, rng)
    for _ in range(30):
        users, targets, _ = step_moves(proto, state, np.ones(4, dtype=bool), rng)
        for u, t in zip(users, targets):
            assert int(t) in inst.access.allowed(int(u))
