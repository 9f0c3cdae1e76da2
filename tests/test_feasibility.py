"""Feasibility theory: greedy exactness, OPT_sat, slack."""

import sys

import numpy as np
import pytest

from repro.core.certify import certify_max_satisfied_witness
from repro.core.feasibility import (
    additive_slack,
    brute_force_assignment,
    greedy_assignment,
    is_feasible,
    is_pointwise_ordered,
    max_satisfied,
    max_satisfied_brute_force,
    multiplicative_slack,
    segment_dp_assignment,
)
from repro.core.instance import AccessMap, Instance
from repro.core.latency import AffineLatency, LatencyProfile

from conftest import random_small_instance


class TestPointwiseOrder:
    def test_identical_and_related_are_ordered(self, small_uniform, related_instance):
        assert is_pointwise_ordered(small_uniform)
        assert is_pointwise_ordered(related_instance)

    def test_crossing_affine_not_ordered(self):
        # slopes/offsets cross: (1x + 0) vs (0.5x + 2) cross at x = 4.
        inst = Instance(
            thresholds=np.full(6, 5.0),
            latencies=LatencyProfile([AffineLatency(1.0), AffineLatency(0.5, 2.0)]),
        )
        assert not is_pointwise_ordered(inst)


class TestGreedyExactness:
    def test_matches_brute_force_on_random_identical_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(150):
            inst = random_small_instance(rng)
            greedy = greedy_assignment(inst)
            brute = brute_force_assignment(inst)
            assert greedy.exact
            assert greedy.feasible == brute.feasible, inst.thresholds
            if greedy.feasible:
                assert greedy.state is not None and greedy.state.is_satisfying()

    def test_greedy_success_is_exact_witness_on_related_machines(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            speeds = rng.choice([0.5, 1.0, 2.0], size=m)
            thresholds = rng.integers(1, 7, size=n).astype(np.float64)
            inst = Instance.related_machines(thresholds, speeds)
            greedy = greedy_assignment(inst)
            brute = brute_force_assignment(inst)
            if greedy.feasible:
                assert brute.feasible and greedy.state.is_satisfying()
            elif greedy.exact:
                assert not brute.feasible

    def test_greedy_counterexample_on_related_machines(self):
        # Feasible, but greedy fails and must say so inconclusively.
        inst = Instance.related_machines([3.0, 3.0, 1.0], [2.0, 0.5])
        greedy = greedy_assignment(inst)
        assert not greedy.feasible and not greedy.exact
        assert brute_force_assignment(inst).feasible

    def test_segment_dp_matches_brute_force_on_related_machines(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            m = int(rng.integers(1, 4))
            speeds = rng.choice([0.5, 1.0, 2.0, 3.0], size=m)
            thresholds = rng.integers(1, 8, size=n).astype(np.float64)
            inst = Instance.related_machines(thresholds, speeds)
            dp = segment_dp_assignment(inst)
            brute = brute_force_assignment(inst)
            assert dp.exact
            assert dp.feasible == brute.feasible, (thresholds, speeds)
            if dp.feasible:
                assert dp.state is not None and dp.state.is_satisfying()

    def test_segment_dp_matches_brute_force_on_mixed_profiles(self):
        from repro.core.latency import MM1Latency, PolynomialLatency

        rng = np.random.default_rng(13)
        pool = [AffineLatency(1.0), AffineLatency(0.5, 2.0), MM1Latency(5.0),
                PolynomialLatency(degree=2)]
        for _ in range(80):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            fns = [pool[int(i)] for i in rng.integers(0, len(pool), size=m)]
            thresholds = rng.integers(1, 9, size=n).astype(np.float64)
            inst = Instance(thresholds=thresholds, latencies=LatencyProfile(fns))
            dp = segment_dp_assignment(inst)
            brute = brute_force_assignment(inst)
            assert dp.feasible == brute.feasible

    def test_segment_dp_restores_recursion_limit(self):
        # n + 200 exceeds the default limit, so the DP raises it while it
        # recurses; it must put the interpreter's limit back afterwards.
        before = sys.getrecursionlimit()
        inst = Instance.related_machines([500.0] * 1200, [1.0, 2.0])
        dp = segment_dp_assignment(inst)
        assert dp.feasible and dp.state.is_satisfying()
        assert sys.getrecursionlimit() == before

    def test_segment_dp_state_limit(self):
        inst = Instance.related_machines([2.0] * 10, [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError):
            segment_dp_assignment(inst, state_limit=3)

    def test_known_feasible(self):
        inst = Instance.identical_machines([2.0, 2.0, 1.0], 2)
        res = greedy_assignment(inst)
        assert res.feasible and res.state.is_satisfying()

    def test_known_infeasible(self):
        # Three users needing an empty-but-for-them resource, two machines.
        inst = Instance.identical_machines([1.0, 1.0, 1.0], 2)
        res = greedy_assignment(inst)
        assert res.exact and not res.feasible

    def test_requires_unit_weights(self):
        inst = Instance(
            thresholds=np.asarray([2.0, 2.0]),
            latencies=LatencyProfile.identical(2),
            weights=np.asarray([1.0, 2.0]),
        )
        with pytest.raises(NotImplementedError):
            greedy_assignment(inst)

    def test_requires_complete_access(self):
        inst = Instance(
            thresholds=np.asarray([2.0, 2.0]),
            latencies=LatencyProfile.identical(2),
            access=AccessMap([[0], [1]], 2),
        )
        with pytest.raises(NotImplementedError):
            greedy_assignment(inst)


class TestIsFeasible:
    def test_identical(self):
        assert is_feasible(Instance.identical_machines([2.0, 2.0, 2.0, 2.0], 2))
        assert not is_feasible(Instance.identical_machines([1.0] * 3, 2))

    def test_non_ordered_small_falls_back_to_brute_force(self):
        inst = Instance(
            thresholds=np.asarray([2.5, 2.5, 2.5]),
            latencies=LatencyProfile([AffineLatency(1.0), AffineLatency(0.5, 2.0)]),
        )
        # Whatever the answer, it must be authoritative (no exception).
        assert isinstance(is_feasible(inst), bool)


class TestMaxSatisfied:
    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(23)
        integer = [random_small_instance(rng, max_n=6, max_m=3, max_q=5) for _ in range(120)]
        # Fractional thresholds and thresholds below 1 probe the floor(q)
        # capacity boundary of the segment DP.
        fractional = [
            Instance.identical_machines(
                rng.uniform(0.3, 5.5, size=int(rng.integers(1, 7))), int(rng.integers(1, 4))
            )
            for _ in range(80)
        ]
        boundary = [
            Instance.identical_machines(
                rng.choice([0.5, 0.99, 1.0, 1.5, 2.0, 2.99, 3.0], size=int(rng.integers(1, 7))),
                int(rng.integers(1, 4)),
            )
            for _ in range(80)
        ]
        for inst in integer + fractional + boundary:
            exact = max_satisfied(inst)
            brute = max_satisfied_brute_force(inst)
            assert exact.exact
            assert exact.n_satisfied == brute.n_satisfied, inst.thresholds
            assert exact.state is not None
            assert exact.state.n_satisfied == exact.n_satisfied

    def test_feasible_instance_satisfies_all(self, small_uniform):
        res = max_satisfied(small_uniform)
        assert res.n_satisfied == small_uniform.n_users

    def test_overloaded_uniform_formula(self):
        # n > m*q with uniform thresholds: OPT_sat = (m-1)*q.
        m, q = 4, 3
        for n in (13, 15, 20):
            inst = Instance.identical_machines([float(q)] * n, m)
            res = max_satisfied(inst)
            assert res.n_satisfied == (m - 1) * q
        # Table T2's ci sizes, far beyond any enumeration of load partitions.
        m, q = 16, 8
        for n in (160, 256):
            inst = Instance.identical_machines([float(q)] * n, m)
            res = max_satisfied(inst)
            assert res.exact
            assert res.n_satisfied == (m - 1) * q == 120
            ok, issues = certify_max_satisfied_witness(inst, res)
            assert ok, issues

    def test_docstring_example(self):
        # thresholds [5,1,1,1,1,1], m=2: OPT is 2 (big user absorbs fillers).
        inst = Instance.identical_machines([5.0, 1, 1, 1, 1, 1], 2)
        res = max_satisfied(inst)
        assert res.exact
        assert res.n_satisfied == 2

    def test_every_machine_carries_satisfied_users_and_fillers(self):
        # m=3: the q=5 user absorbs four fillers and each q=1 user sits alone
        # (loads 5, 1, 1).  Leaving a machine spare for the fillers satisfies
        # only 2, so the optimum fills the segments' slack instead.
        inst = Instance.identical_machines([5.0, 1, 1, 1, 1, 1, 1], 3)
        res = max_satisfied(inst)
        assert res.exact
        assert res.n_satisfied == 3 == max_satisfied_brute_force(inst).n_satisfied
        assert sorted(res.state.loads.tolist()) == [1.0, 1.0, 5.0]

    def test_feasible_related_instance_via_greedy_path(self):
        # 3 machines at speed 1 (cap 2 each) + 2 at speed 4 (cap 8 each)
        # hold 22 users at q = 2.
        inst = Instance.related_machines([2.0] * 22, [1.0] * 3 + [4.0] * 2)
        res = max_satisfied(inst)
        assert res.n_satisfied == 22

    def test_heuristic_lower_bound_on_infeasible_related(self):
        inst = Instance.related_machines([2.0] * 40, [1.0] * 3 + [2.0] * 2)
        res = max_satisfied(inst)
        assert not res.exact
        assert 0 < res.n_satisfied < 40
        assert res.state is not None
        assert res.state.n_satisfied == res.n_satisfied


class TestSlack:
    def test_multiplicative_slack_uniform(self):
        # q=4, n=8, m=4: can tighten to q'=2 => eps = 0.5.
        inst = Instance.identical_machines([4.0] * 8, 4)
        eps = multiplicative_slack(inst, tol=1e-3)
        assert eps == pytest.approx(0.5, abs=5e-3)

    def test_zero_slack_when_tight(self):
        inst = Instance.identical_machines([2.0] * 8, 4)
        assert multiplicative_slack(inst) == pytest.approx(0.0, abs=5e-3)

    def test_infeasible_slack_is_zero(self):
        inst = Instance.identical_machines([1.0] * 3, 2)
        assert multiplicative_slack(inst) == 0.0
        assert additive_slack(inst) == 0.0

    def test_additive_slack(self):
        # q=4, need q' >= 2: delta just under 2.
        inst = Instance.identical_machines([4.0] * 8, 4)
        delta = additive_slack(inst, tol=1e-3)
        assert delta == pytest.approx(2.0, abs=5e-3)


def test_brute_force_limit():
    inst = Instance.identical_machines([2.0] * 30, 4)
    with pytest.raises(ValueError):
        brute_force_assignment(inst, limit=10)
