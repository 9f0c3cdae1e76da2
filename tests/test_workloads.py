"""Instance generators and topologies: stated properties hold."""

import math

import numpy as np
import pytest

from repro.core.feasibility import greedy_assignment, is_feasible, multiplicative_slack
from repro.core.stability import is_generous
from repro.workloads import generators as gen
from repro.workloads.topology import (
    TOPOLOGIES,
    barabasi_albert_graph,
    complete_graph,
    random_regular_graph,
    ring_graph,
    star_graph,
    torus_graph,
)

from oracles import neighbors_of


class TestUniformSlack:
    def test_feasible_and_generous(self):
        for n, m, s in [(100, 8, 0.0), (1000, 32, 0.25), (64, 64, 0.5)]:
            inst = gen.uniform_slack(n, m, s)
            assert is_feasible(inst)
            assert is_generous(inst)

    def test_slack_monotone_in_parameter(self):
        loose = gen.uniform_slack(1024, 32, 0.5)
        tight = gen.uniform_slack(1024, 32, 0.0)
        assert loose.thresholds[0] > tight.thresholds[0]
        assert multiplicative_slack(loose) > multiplicative_slack(tight)

    def test_validation(self):
        with pytest.raises(ValueError):
            gen.uniform_slack(0, 4)
        with pytest.raises(ValueError):
            gen.uniform_slack(10, 4, slack=1.0)


class TestTightUniform:
    def test_exactly_tight(self):
        inst = gen.tight_uniform(128, 16)
        assert is_feasible(inst)
        assert multiplicative_slack(inst) == pytest.approx(0.0, abs=5e-3)

    def test_divisibility_required(self):
        with pytest.raises(ValueError):
            gen.tight_uniform(100, 16)


class TestTwoClass:
    def test_feasibility_enforced(self):
        inst = gen.two_class(8, 2.0, 100, 30.0, 16)
        assert is_feasible(inst)

    def test_infeasible_params_raise(self):
        with pytest.raises(ValueError):
            gen.two_class(100, 2.0, 100, 30.0, 4)

    def test_raw_mode_allows_infeasible(self):
        inst = gen.two_class(100, 2.0, 100, 30.0, 4, require_feasible=False)
        assert not greedy_assignment(inst).feasible

    def test_class_ordering_validated(self):
        with pytest.raises(ValueError):
            gen.two_class(4, 5.0, 4, 2.0, 8)

    def test_shuffled_deterministically(self):
        a = gen.two_class(4, 2.0, 20, 30.0, 8, rng=5)
        b = gen.two_class(4, 2.0, 20, 30.0, 8, rng=5)
        c = gen.two_class(4, 2.0, 20, 30.0, 8, rng=6)
        assert np.array_equal(a.thresholds, b.thresholds)
        assert not np.array_equal(a.thresholds, c.thresholds)


class TestZipf:
    def test_feasible_by_construction(self):
        inst = gen.zipf_thresholds(200, 16, alpha=1.5, rng=3)
        assert is_feasible(inst)

    def test_raw_mode(self):
        inst = gen.zipf_thresholds(200, 4, alpha=3.0, q_min=1.0, ensure="raw", rng=3)
        assert inst.n_users == 200  # may or may not be feasible

    def test_heavy_tail_exists(self):
        inst = gen.zipf_thresholds(2000, 64, alpha=1.2, rng=1)
        q = inst.thresholds
        assert q.max() > 5 * np.median(q)

    def test_invalid_ensure(self):
        with pytest.raises(ValueError):
            gen.zipf_thresholds(10, 2, ensure="maybe")


class TestOverloaded:
    def test_infeasible_by_construction(self):
        inst = gen.overloaded(100, 8, 10.0)
        assert not is_feasible(inst)

    def test_rejects_feasible_parameters(self):
        with pytest.raises(ValueError):
            gen.overloaded(80, 8, 10.0)


class TestRelatedSpeeds:
    def test_feasible_with_capacity_margin(self):
        inst = gen.related_speeds(500, 16, slack=0.25, rng=2)
        assert not inst.identical_resources
        caps = inst.capacity_for(float(inst.thresholds[0]))
        assert np.maximum(caps, 0).sum() >= 500
        assert is_feasible(inst)  # uniform thresholds: greedy failure exact

    def test_speed_ratio_bounds(self):
        inst = gen.related_speeds(100, 32, speed_ratio=8.0, rng=1)
        from repro.core.latency import SpeedScaledLatency

        speeds = [f.speed for f in inst.latencies.functions]
        assert max(speeds) / min(speeds) <= 8.0 + 1e-9


class TestMM1Farm:
    def test_feasible_capacity(self):
        inst = gen.mm1_farm(200, 16, utilisation=0.7, rng=4)
        caps = inst.capacity_for(float(inst.thresholds[0]))
        assert np.maximum(caps, 0).sum() >= 200

    def test_utilisation_validation(self):
        with pytest.raises(ValueError):
            gen.mm1_farm(100, 8, utilisation=1.5)


class TestPolynomialFarm:
    def test_feasible_capacity(self):
        inst = gen.polynomial_farm(200, 16, degree=2)
        caps = inst.capacity_for(float(inst.thresholds[0]))
        assert np.maximum(caps, 0).sum() >= 200


class TestWeighted:
    def test_weights_and_headroom(self):
        inst = gen.weighted_uniform(100, 8, slack=0.4, rng=6)
        assert not inst.unit_weights
        # First-fit-decreasing by weight fits within q (sanity of sizing):
        order = np.argsort(-inst.weights)
        loads = np.zeros(8)
        for u in order:
            r = int(np.argmin(loads))
            loads[r] += inst.weights[u]
        assert loads.max() <= inst.thresholds[0] + 1e-9


class TestRandomAccess:
    def test_degrees_and_bounds(self):
        inst = gen.random_access(50, 10, degree=3, rng=7)
        assert inst.access is not None
        assert (np.diff(inst.access.offsets) == 3).all()
        with pytest.raises(ValueError):
            gen.random_access(10, 4, degree=5)


class TestTopologies:
    def test_registry_builds_connected_graphs(self):
        for name, builder in TOPOLOGIES.items():
            m = 16
            graph = builder(m, 0)
            assert graph.n_resources == m
            # every resource has at least one neighbour
            for r in range(m):
                assert neighbors_of(graph, r).size >= 1

    def test_ring_degrees(self):
        graph = ring_graph(10)
        for r in range(10):
            assert neighbors_of(graph, r).size == 2

    def test_torus_requires_square(self):
        with pytest.raises(ValueError):
            torus_graph(10)
        assert torus_graph(16).n_resources == 16

    def test_random_regular_validation(self):
        with pytest.raises(ValueError):
            random_regular_graph(4, degree=5)
        with pytest.raises(ValueError):
            random_regular_graph(5, degree=3)  # odd product
        for degree in (0, -2):
            with pytest.raises(ValueError, match=r"degree must be in \[1, m\)"):
                random_regular_graph(8, degree=degree)

    def test_star_hub(self):
        graph = star_graph(6)
        assert neighbors_of(graph, 0).size == 5

    def test_complete(self):
        graph = complete_graph(5)
        for r in range(5):
            assert neighbors_of(graph, r).size == 4

    def test_barabasi_albert_validation(self):
        with pytest.raises(ValueError):
            barabasi_albert_graph(4, attach=0)


def test_generators_deterministic_in_seed():
    for build in (
        lambda s: gen.zipf_thresholds(50, 8, rng=s),
        lambda s: gen.related_speeds(50, 8, rng=s),
        lambda s: gen.weighted_uniform(50, 8, rng=s),
    ):
        a, b, c = build(1), build(1), build(2)
        assert np.array_equal(a.thresholds, b.thresholds)
        assert np.array_equal(a.weights, b.weights)
        same = np.array_equal(a.thresholds, c.thresholds) and np.array_equal(
            a.weights, c.weights
        )
        same_lat = a.latencies.functions == c.latencies.functions
        assert not (same and same_lat)
