"""Unit tests for Instance and AccessMap."""

import numpy as np
import pytest

from repro.core.instance import AccessMap, Instance
from repro.core.latency import LatencyProfile, MM1Latency


class TestAccessMap:
    def test_complete(self):
        access = AccessMap.complete(3, 4)
        assert access.is_complete()
        assert list(access.allowed(0)) == [0, 1, 2, 3]
        assert access.allowed(2).size == 4

    def test_empty_row_rejected(self):
        with pytest.raises(ValueError):
            AccessMap([[0], []], 2)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            AccessMap([[0, 0]], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            AccessMap([[0, 5]], 2)

    def test_contains_vectorized(self):
        access = AccessMap([[0, 2], [1]], 3)
        users = np.asarray([0, 0, 1, 1])
        resources = np.asarray([0, 1, 1, 2])
        assert list(access.contains(users, resources)) == [True, False, True, False]

    def test_sample_respects_allowed_sets(self, rng):
        access = AccessMap([[0, 2], [1], [0, 1, 2]], 3)
        users = np.asarray([0, 1, 2] * 200)
        samples = access.sample(users, rng)
        for u, r in zip(users, samples):
            assert r in access.allowed(int(u))

    def test_sample_is_roughly_uniform(self, rng):
        access = AccessMap([[0, 1, 2, 3]], 4)
        samples = access.sample(np.zeros(8000, dtype=np.int64), rng)
        counts = np.bincount(samples, minlength=4)
        assert counts.min() > 1700  # expectation 2000 each

    def test_roundtrip_to_lists(self):
        allowed = [[0, 2], [1], [0, 1, 2]]
        access = AccessMap(allowed, 3)
        assert [access.allowed(u).tolist() for u in range(3)] == allowed
        assert not access.is_complete()


class TestInstance:
    def test_basic_construction(self, small_uniform):
        assert small_uniform.n_users == 12
        assert small_uniform.n_resources == 4
        assert small_uniform.unit_weights
        assert small_uniform.identical_resources

    def test_thresholds_frozen(self, small_uniform):
        with pytest.raises(ValueError):
            small_uniform.thresholds[0] = 99.0

    def test_validation_errors(self):
        profile = LatencyProfile.identical(2)
        with pytest.raises(ValueError):
            Instance(thresholds=np.asarray([]), latencies=profile)
        with pytest.raises(ValueError):
            Instance(thresholds=np.asarray([0.0, 1.0]), latencies=profile)
        with pytest.raises(ValueError):
            Instance(thresholds=np.asarray([np.inf, 1.0]), latencies=profile)
        with pytest.raises(ValueError):
            Instance(
                thresholds=np.asarray([1.0, 2.0]),
                latencies=profile,
                weights=np.asarray([1.0]),
            )
        with pytest.raises(ValueError):
            Instance(
                thresholds=np.asarray([1.0, 2.0]),
                latencies=profile,
                weights=np.asarray([1.0, -1.0]),
            )
        with pytest.raises(TypeError):
            Instance(thresholds=np.asarray([1.0]), latencies="nope")  # type: ignore[arg-type]

    def test_access_size_validation(self):
        profile = LatencyProfile.identical(2)
        with pytest.raises(ValueError):
            Instance(
                thresholds=np.asarray([1.0, 2.0]),
                latencies=profile,
                access=AccessMap([[0]], 2),
            )
        with pytest.raises(ValueError):
            Instance(
                thresholds=np.asarray([1.0]),
                latencies=profile,
                access=AccessMap([[0]], 1),
            )

    def test_accessible_default_and_restricted(self):
        inst = Instance(
            thresholds=np.asarray([1.0, 2.0]),
            latencies=LatencyProfile.identical(3),
            access=AccessMap([[0, 1], [2]], 3),
        )
        assert list(inst.accessible(0)) == [0, 1]
        assert list(inst.accessible(1)) == [2]
        flat = Instance.identical_machines([1.0, 2.0], 3)
        assert list(flat.accessible(1)) == [0, 1, 2]

    def test_related_machines_constructor(self):
        inst = Instance.related_machines([2.0, 2.0], [1.0, 4.0])
        assert not inst.identical_resources
        assert list(inst.capacity_for(2.0)) == [2, 8]

    def test_identical_resources_flag(self):
        inst = Instance(
            thresholds=np.asarray([1.0]),
            latencies=LatencyProfile([MM1Latency(4.0)]),
        )
        assert not inst.identical_resources

    def test_describe(self, small_uniform):
        d = small_uniform.describe()
        assert d["n_users"] == 12
        assert d["complete_access"]
        assert d["threshold_min"] == 4.0
