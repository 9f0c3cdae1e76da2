"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.latency import LatencyProfile, SpeedScaledLatency
from repro.core.state import State


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def bench_payload(tmp_path_factory):
    """One smoke-scale bench harness run shared by every test that reads it."""
    from repro.bench import run_bench

    out = tmp_path_factory.mktemp("bench") / "BENCH_engine.json"
    return run_bench(scale="smoke", out=str(out), repeats=1), out


@pytest.fixture
def small_uniform():
    """12 users, 4 identical machines, threshold 4 (generous: 4*4 >= 12)."""
    return Instance.identical_machines(np.full(12, 4.0), 4, name="small-uniform")


@pytest.fixture
def trap_instance():
    """The stability module's canonical trap: q=[2,10*6], m=2."""
    return Instance.identical_machines(
        np.asarray([2.0, 10, 10, 10, 10, 10, 10]), 2, name="trap"
    )


@pytest.fixture
def trap_state(trap_instance):
    """u0 + three big users on r0, three big users on r1 — stable, unsat."""
    return State(
        trap_instance, np.asarray([0, 0, 0, 0, 1, 1, 1], dtype=np.int64)
    )


@pytest.fixture
def related_instance():
    """Speed-scaled machines (pointwise ordered profile)."""
    return Instance(
        thresholds=np.asarray([3.0, 3.0, 2.0, 2.0, 1.5, 1.5]),
        latencies=LatencyProfile([SpeedScaledLatency(s) for s in (1.0, 2.0, 4.0)]),
        name="related",
    )


def random_small_instance(rng: np.random.Generator, *, max_n=7, max_m=3, max_q=8):
    """Random tiny identical-machine instance for oracle comparisons."""
    n = int(rng.integers(1, max_n + 1))
    m = int(rng.integers(1, max_m + 1))
    thresholds = rng.integers(1, max_q + 1, size=n).astype(np.float64)
    return Instance.identical_machines(thresholds, m, name="rand-small")


def assert_valid_state(state: State) -> None:
    state.check_invariants()
    assert state.loads.min() >= 0
    assert state.loads.sum() == pytest.approx(state.instance.weights.sum())


def step_moves(proto, state: State, active: np.ndarray, rng: np.random.Generator):
    """One ``proto.step`` on a copy of ``state``, which stays as it was.

    Returns the users that changed resource (ascending), their new
    resources (int64) and the step's :class:`StepOutcome`.
    """
    after = state.copy()
    outcome = proto.step(after, active, rng)
    users = np.flatnonzero(after.assignment != state.assignment)
    return users, after.assignment[users].astype(np.int64), outcome
