"""End-to-end integration: generators -> protocols -> analysis agree."""

import numpy as np
import pytest

from repro.analysis.stats import summarize
from repro.baselines.centralized import optimal_assignment
from repro.core.feasibility import max_satisfied
from repro.core.potential import overload_potential
from repro.core.protocols import (
    BestResponseProtocol,
    PermitProtocol,
    QoSSamplingProtocol,
    SweepBestResponse,
)
from repro.core.stability import is_stable
from repro.msgsim.runner import run_message_sim
from repro.sim.engine import run
from repro.sim.events import ResourceFailure
from repro.sim.metrics import Recorder
from repro.sim.parallel import RunSpec, replicate
from repro.workloads.generators import (
    mm1_farm,
    related_speeds,
    uniform_slack,
    zipf_thresholds,
)

ALL_PROTOCOLS = [
    QoSSamplingProtocol,
    PermitProtocol,
    BestResponseProtocol,
    SweepBestResponse,
]


@pytest.mark.parametrize("protocol_cls", ALL_PROTOCOLS, ids=lambda c: c.__name__)
def test_every_protocol_solves_generous_uniform(protocol_cls):
    inst = uniform_slack(200, 16, 0.25)
    result = run(inst, protocol_cls(), seed=7, initial="pile", max_rounds=20_000)
    assert result.status == "satisfying"
    # and agrees with the centralized optimum's existence
    assert optimal_assignment(inst).is_satisfying()


@pytest.mark.parametrize(
    "make",
    [
        lambda: related_speeds(200, 16, rng=1),
        lambda: mm1_farm(200, 16, rng=1),
        lambda: zipf_thresholds(200, 16, rng=1),
    ],
    ids=["related", "mm1", "zipf"],
)
def test_heterogeneous_instances_converge_or_stabilise(make):
    inst = make()
    result = run(
        inst, QoSSamplingProtocol(), seed=3, initial="pile", max_rounds=50_000
    )
    assert result.converged
    assert result.satisfied_fraction > 0.9


def test_final_states_of_improvement_protocols_are_stable():
    inst = zipf_thresholds(150, 12, rng=5)
    for protocol in (QoSSamplingProtocol(), BestResponseProtocol(polite=False)):
        result = run(
            inst, protocol, seed=9, initial="random", max_rounds=50_000, keep_state=True
        )
        assert result.converged
        assert is_stable(result.final_state)


def test_trajectory_potential_is_supermartingale_ish():
    """Overload potential ends at zero and the recorded trajectory's
    first satisfying round matches the engine's round count."""
    inst = uniform_slack(300, 16, 0.15)
    recorder = Recorder(potentials={"overload": overload_potential})
    result = run(
        inst,
        QoSSamplingProtocol(),
        seed=11,
        initial="pile",
        recorder=recorder,
    )
    traj = result.trajectory
    assert result.status == "satisfying"
    assert traj.potentials["overload"][-1] >= 0
    assert traj.first_satisfying_round() == result.rounds


def test_failure_injection_end_to_end():
    inst = uniform_slack(256, 16, 0.3)
    events = [ResourceFailure(40, r) for r in (0, 1)]
    result = run(
        inst,
        QoSSamplingProtocol(),
        seed=13,
        initial="random",
        events=events,
        keep_state=True,
    )
    assert result.status == "satisfying"
    assert result.final_state.loads[0] == 0
    assert result.final_state.loads[1] == 0
    assert result.recovery_rounds is not None


def test_replicated_summaries_are_sane():
    spec = RunSpec(
        generator="uniform_slack",
        generator_kwargs={"n": 256, "m": 16, "slack": 0.2},
        protocol="permit",
        initial="pile",
        label="integration",
    )
    results = replicate(spec, 6, base_seed=3)
    rounds = [r.rounds for r in results if r.status == "satisfying"]
    assert len(rounds) == 6
    s = summarize(np.asarray(rounds, dtype=float))
    assert s.minimum >= 1
    assert s.maximum < 50


def test_engine_and_msgsim_agree_on_satisfiability():
    inst = uniform_slack(128, 8, 0.25)
    eng = run(inst, QoSSamplingProtocol(), seed=21, initial="pile")
    msg = run_message_sim(inst, seed=21, initial="pile", max_time=500.0)
    assert eng.status == "satisfying"
    assert msg.status == "satisfying"
    # migration effort within a small factor of each other
    assert 0.25 <= (msg.total_moves + 1) / (eng.total_moves + 1) <= 4.0


def test_infeasible_instance_consistency():
    from repro.workloads.generators import overloaded

    inst = overloaded(100, 8, 8.0)
    opt = max_satisfied(inst)
    assert opt.n_satisfied == 7 * 8
    result = run(
        inst, PermitProtocol(), seed=5, initial="pile", max_rounds=10_000
    )
    assert result.status == "quiescent"
    assert result.n_satisfied <= opt.n_satisfied
