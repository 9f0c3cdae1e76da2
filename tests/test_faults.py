"""Fault injection and the self-healing protocol layer (experiment F13).

Three layers of evidence:

1. plan/transport semantics — validation, counters, and the contract that
   a null plan is bit-for-bit the network without one;
2. protocol resilience — convergence with load conservation under drops,
   duplication and reordering;
3. randomized stress (``-m stress``) — hypothesis-driven sweeps asserting
   the two invariants that define self-healing: no user deadlocks and
   conservation holds at quiescence.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.latency import IdentityLatency
from repro.msgsim import (
    ConstantDelay,
    FaultPlan,
    LoadQuery,
    Network,
    ResourceAgent,
    UserAgent,
    certify_message_conservation,
    run_message_sim,
)
from repro.workloads.generators import uniform_slack

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# FaultPlan semantics
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultPlan(p_drop=1.5)
        with pytest.raises(ValueError):
            FaultPlan(p_duplicate=-0.1)
        with pytest.raises(ValueError):
            FaultPlan(reorder_shape=0.0)

    def test_is_active(self):
        assert not FaultPlan().is_active()
        assert not FaultPlan(seed=99).is_active()
        assert FaultPlan(p_drop=0.01).is_active()
        assert FaultPlan(p_duplicate=0.01).is_active()
        assert FaultPlan(p_reorder=0.01).is_active()



# ---------------------------------------------------------------------------
# Network(plan=...) transport semantics
# ---------------------------------------------------------------------------


class _Sink:
    def __init__(self, agent_id):
        self.agent_id = agent_id
        self.received = []

    def handle(self, msg, network):
        self.received.append((network.now, msg))


def _net(plan, **kwargs):
    kwargs.setdefault("delay_model", ConstantDelay(0.01))
    kwargs.setdefault("seed", 0)
    return Network(plan=plan, **kwargs)


# The class keeps its historical name so the test ids stay stable; it tests
# the one ``Network`` class under a fault plan.
class TestUnreliableNetwork:
    def test_null_plan_is_not_lossy(self):
        assert not _net(FaultPlan()).lossy
        assert not _net(None).lossy
        assert _net(FaultPlan(p_drop=0.01)).lossy

    @pytest.mark.parametrize(
        "plan",
        [None, FaultPlan(), FaultPlan(p_drop=0.5, p_duplicate=0.5)],
        ids=["no-plan", "null-plan", "lossy-plan"],
    )
    def test_unknown_destination_raises_under_every_plan(self, plan):
        net = _net(plan)
        with pytest.raises(KeyError):
            net.send("nobody:0", LoadQuery("user:0", weight=1.0, probe=False))
        assert net.fault_counts == {"dropped": 0, "duplicated": 0, "reordered": 0}

    def test_all_messages_dropped_at_p_one(self):
        net = _net(FaultPlan(p_drop=1.0))
        sink = _Sink("user:0")
        net.register(sink)
        for _ in range(20):
            net.send("user:0", LoadQuery("x", weight=1.0, probe=False))
        net.run(max_events=100)
        assert sink.received == []
        assert net.fault_counts["dropped"] == 20
        assert net.message_counts["LoadQuery"] == 20  # sends still counted

    def test_duplication_delivers_twice(self):
        net = _net(FaultPlan(p_duplicate=1.0))
        sink = _Sink("user:0")
        net.register(sink)
        net.send("user:0", LoadQuery("x", weight=1.0, probe=False))
        net.run(max_events=10)
        assert len(sink.received) == 2
        assert net.fault_counts["duplicated"] == 1
        assert net.message_counts["LoadQuery"] == 1  # one protocol send

    def test_reordering_adds_delay(self):
        net = _net(FaultPlan(p_reorder=1.0, reorder_scale=10.0))
        sink = _Sink("user:0")
        net.register(sink)
        net.send("user:0", LoadQuery("x", weight=1.0, probe=False))
        net.run(max_events=10)
        assert net.fault_counts["reordered"] == 1
        assert sink.received[0][0] > 0.01  # beyond the base delay

    def test_determinism(self):
        plan = FaultPlan(p_drop=0.3, p_duplicate=0.1, p_reorder=0.1, seed=4)
        counts = []
        for _ in range(2):
            net = _net(plan, seed=7)
            sink = _Sink("user:0")
            net.register(sink)
            for _ in range(50):
                net.send("user:0", LoadQuery("x", weight=1.0, probe=False))
            net.run(max_events=500)
            counts.append((dict(net.fault_counts), len(sink.received)))
        assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# End-to-end: null plan is bit-for-bit the reliable execution
# ---------------------------------------------------------------------------


def _fingerprint(res):
    return (
        res.time,
        res.total_messages,
        res.total_moves,
        tuple(int(a) for a in res.final_state.assignment),
    )


def test_null_plan_reproduces_reliable_run_bitexact():
    inst = uniform_slack(48, 6, slack=0.1)
    kwargs = dict(seed=5, initial="pile", max_time=500.0)
    base = run_message_sim(inst, **kwargs)
    null = run_message_sim(inst, fault_plan=FaultPlan(), **kwargs)
    assert _fingerprint(base) == _fingerprint(null)
    assert null.retries == 0 and null.gave_up == 0 and null.watchdog_resets == 0
    assert all(v == 0 for v in null.fault_counts.values())


# ---------------------------------------------------------------------------
# End-to-end: convergence + conservation under faults
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p_drop", [0.05, 0.2])
def test_converges_with_conservation_under_loss(p_drop):
    inst = uniform_slack(48, 6, slack=0.1)
    plan = FaultPlan(p_drop=p_drop, p_duplicate=0.05, p_reorder=0.05, seed=3)
    res = run_message_sim(
        inst, seed=5, initial="pile", max_time=2_000.0, fault_plan=plan,
    )
    assert res.converged
    assert res.n_satisfied == 48
    assert res.conservation_ok is True, res.conservation_issues
    assert res.fault_counts["dropped"] > 0  # faults actually happened


def test_liveness_at_extreme_loss():
    """At 50% drop the system may not finish fast, but nobody deadlocks:
    every user keeps activating (watchdog/give-up keep the machine live)."""
    inst = uniform_slack(24, 4, slack=0.25)
    plan = FaultPlan(p_drop=0.5, seed=3)
    res = run_message_sim(
        inst, seed=5, initial="pile", max_time=300.0, fault_plan=plan,
    )
    # progress despite heavy loss: many activations, some abandoned
    assert res.activations > 24
    assert res.retries > 0
    assert res.gave_up > 0
    # and no silent wedge: the run either converged or ran out of budget
    # while still producing activations (not stuck before max_time).
    assert res.status in ("satisfying", "max_time")


def test_fault_counters_surface_in_result():
    inst = uniform_slack(24, 4, slack=0.25)
    plan = FaultPlan(p_drop=0.1, p_duplicate=0.1, seed=1)
    res = run_message_sim(inst, seed=2, initial="pile", max_time=1_000.0, fault_plan=plan)
    assert set(res.fault_counts) == {"dropped", "duplicated", "reordered"}
    assert res.fault_counts["dropped"] > 0
    assert res.stale_moves >= 0


def test_certifier_flags_corruption():
    net = Network(seed=0)
    res0 = ResourceAgent(0, IdentityLatency())
    res1 = ResourceAgent(1, IdentityLatency())
    user = UserAgent(
        0, threshold=1.0, weight=2.0, initial_resource=0, n_resources=2,
        rng=np.random.default_rng(0),
    )
    net.register(res0)
    net.register(res1)
    net.register(user)
    user.start(net)
    net.run(max_events=10)
    ok, issues = certify_message_conservation([res0, res1], [user])
    assert ok and issues == []
    # corrupt the books: double-applied join
    res0.load += user.weight
    ok, issues = certify_message_conservation([res0, res1], [user])
    assert not ok
    assert any("load" in issue for issue in issues)
    # phantom resident
    res1.residents["user:9"] = 1.0
    ok, issues = certify_message_conservation([res0, res1], [user])
    assert any("phantom" in issue for issue in issues)


def test_move_retransmission_survives_dropped_join():
    """A dropped Join must be retransmitted until acknowledged — the move
    is state-bearing, so at-least-once + dedup gives exactly-once."""
    inst = uniform_slack(24, 4, slack=0.1)
    plan = FaultPlan(p_drop=0.3, seed=9)
    res = run_message_sim(
        inst, seed=1, initial="pile", max_time=2_000.0, fault_plan=plan,
    )
    assert res.converged
    assert res.conservation_ok is True, res.conservation_issues
    # duplicates of retransmitted moves were deduplicated, not re-applied
    assert res.stale_moves >= 0


# ---------------------------------------------------------------------------
# Randomized stress (separate, non-blocking CI job)
# ---------------------------------------------------------------------------


if HAVE_HYPOTHESIS:

    @pytest.mark.stress
    @settings(max_examples=15, deadline=None)
    @given(
        p_drop=st.floats(min_value=0.0, max_value=0.25),
        p_duplicate=st.floats(min_value=0.0, max_value=0.1),
        p_reorder=st.floats(min_value=0.0, max_value=0.1),
        fault_seed=st.integers(min_value=0, max_value=2**31),
        run_seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_stress_no_deadlock_and_conservation(
        p_drop, p_duplicate, p_reorder, fault_seed, run_seed
    ):
        inst = uniform_slack(32, 4, slack=0.2)
        plan = FaultPlan(
            p_drop=p_drop, p_duplicate=p_duplicate, p_reorder=p_reorder,
            seed=fault_seed,
        )
        res = run_message_sim(
            inst, seed=run_seed, initial="pile", max_time=3_000.0, fault_plan=plan,
        )
        # Self-healing invariant 1: no deadlock — the run converges well
        # within a budget ~1000x the fault-free convergence time.
        assert res.converged, (
            f"stuck at {res.n_satisfied}/32 satisfied "
            f"(p_drop={p_drop:.3f}, retries={res.retries}, "
            f"gave_up={res.gave_up}, watchdogs={res.watchdog_resets})"
        )
        # Self-healing invariant 2: load conservation at quiescence.
        assert res.conservation_ok is True, res.conservation_issues
