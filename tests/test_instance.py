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


# ---------------------------------------------------------------------------
# Column storage: a uniform per-user column is one value, broadcast.
# ---------------------------------------------------------------------------

#: Small kwargs for every registered generator (``n`` users each).
SMALL = {
    "uniform_slack": {"n": 16, "m": 4},
    "tight_uniform": {"n": 16, "m": 4},
    "two_class": {
        "n_demanding": 2, "q_demanding": 2.0, "n_tolerant": 14, "q_tolerant": 8.0, "m": 4,
    },
    "zipf_thresholds": {"n": 16, "m": 4},
    "overloaded": {"n": 30, "m": 4, "q": 4.0},
    "related_speeds": {"n": 16, "m": 4},
    "mm1_farm": {"n": 16, "m": 4},
    "polynomial_farm": {"n": 16, "m": 4},
    "weighted_uniform": {"n": 16, "m": 4},
    "random_access": {"n": 16, "m": 4, "degree": 2},
    "sparse_access": {"n": 16, "m": 4, "degree": 2},
}
PER_USER_THRESHOLDS = {"two_class", "zipf_thresholds"}
PER_USER_WEIGHTS = {"weighted_uniform"}


def _is_broadcast(column: np.ndarray, value: float, n: int) -> bool:
    return (
        column.strides == (0,)
        and column.dtype == np.float64
        and not column.flags.writeable
        and np.array_equal(column, np.full(n, value))
    )


def _contiguous(column: np.ndarray) -> bool:
    return column.flags.c_contiguous and column.dtype == np.float64


class TestColumnStorage:
    def test_registry_covers_every_generator(self):
        from repro.registry import GENERATORS

        assert set(SMALL) == set(GENERATORS)

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_generator_columns(self, name):
        from repro.registry import build_instance

        inst = build_instance(name, **SMALL[name])
        n = inst.n_users
        q, w = np.array(inst.thresholds), np.array(inst.weights)  # contiguous copies
        if name in PER_USER_THRESHOLDS:
            assert _contiguous(inst.thresholds) and not inst.uniform_thresholds
        else:
            assert inst.uniform_thresholds and _is_broadcast(inst.thresholds, q[0], n)
        if name in PER_USER_WEIGHTS:
            assert _contiguous(inst.weights) and not inst.unit_weights
        else:
            assert inst.unit_weights and _is_broadcast(inst.weights, 1.0, n)
        assert inst.describe()["unit_weights"] == inst.unit_weights
        assert {k: v for k, v in inst.describe().items() if k.startswith("threshold_")} == {
            "threshold_min": float(q.min()),
            "threshold_max": float(q.max()),
            "threshold_mean": float(q.mean()),
        }
        assert inst.uniform_thresholds == bool(np.all(q == q[0]))
        assert inst.unit_weights == bool(np.all(w == 1.0))

    def test_view_holds_no_reference_to_the_callers_array(self):
        q = np.full(1000, 3.0)
        inst = Instance.identical_machines(q, 4)
        assert inst.thresholds.strides == (0,)
        assert not np.shares_memory(inst.thresholds, q)
        assert q.flags.writeable  # the caller's array is not frozen either
        q[0] = 1.0
        assert inst.thresholds[0] == 3.0

    def test_zero_stride_input_is_kept(self):
        q = np.broadcast_to(np.float64(5.0), (8,))
        w = np.broadcast_to(np.float64(2.0), (8,))
        inst = Instance(thresholds=q, latencies=LatencyProfile.identical(2), weights=w)
        assert inst.thresholds is q and inst.weights is w
        assert inst.uniform_thresholds and not inst.unit_weights

    def test_uniform_non_unit_weights_are_broadcast(self):
        inst = Instance(
            thresholds=np.asarray([1.0, 2.0, 3.0]),
            latencies=LatencyProfile.identical(2),
            weights=np.full(3, 2.5),
        )
        assert _contiguous(inst.thresholds) and not inst.uniform_thresholds
        assert _is_broadcast(inst.weights, 2.5, 3) and not inst.unit_weights

    def test_user_events_rebuild_broadcast_columns(self):
        from repro.core.state import State
        from repro.sim.events import UserArrival, UserDeparture

        inst = Instance.identical_machines(np.full(10, 4.0), 3)
        state = State.worst_case_pile(inst)
        rng = np.random.default_rng(0)
        for event in (UserArrival(1, np.full(3, 4.0)), UserDeparture(1, users=[0, 5])):
            new_inst, new_state = event.apply(inst, state, rng)
            assert _is_broadcast(new_inst.thresholds, 4.0, new_inst.n_users)
            assert _is_broadcast(new_inst.weights, 1.0, new_inst.n_users)
            new_state.check_invariants()
        mixed, _ = UserArrival(1, np.full(2, 6.0)).apply(inst, state, rng)
        assert _contiguous(mixed.thresholds) and not mixed.uniform_thresholds
        assert mixed.thresholds.tolist() == [4.0] * 10 + [6.0] * 2
