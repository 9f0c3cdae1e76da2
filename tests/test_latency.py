"""Unit tests for the latency-function library."""

import math

import numpy as np
import pytest

from repro.core.latency import (
    AffineLatency,
    CapacityLatency,
    IdentityLatency,
    LatencyProfile,
    MM1Latency,
    PolynomialLatency,
    SpeedScaledLatency,
    TableLatency,
    UnavailableLatency,
)

ALL_FUNCTIONS = [
    IdentityLatency(),
    SpeedScaledLatency(2.0),
    SpeedScaledLatency(0.5),
    AffineLatency(1.5, 2.0),
    AffineLatency(0.25),
    PolynomialLatency(coeff=0.5, degree=2),
    PolynomialLatency(degree=3, offset=1.0),
    MM1Latency(10.0),
    CapacityLatency(5),
    TableLatency([0.0, 1.0, 1.0, 4.0, 9.0]),
    UnavailableLatency(),
]


@pytest.mark.parametrize("f", ALL_FUNCTIONS, ids=lambda f: repr(f))
def test_nondecreasing_on_integer_grid(f):
    grid = np.arange(0, 30, dtype=np.float64)
    values = f(grid)
    finite_or_inf = values[~np.isnan(values)]
    assert finite_or_inf.size == grid.size
    with np.errstate(invalid="ignore"):  # inf - inf at saturated tails
        diffs = np.diff(values)
    assert np.all((diffs >= -1e-12) | np.isnan(diffs))


@pytest.mark.parametrize("f", ALL_FUNCTIONS, ids=lambda f: repr(f))
def test_scalar_and_array_evaluation_agree(f):
    for x in (0, 1, 3, 7, 20):
        scalar = f(float(x))
        array = f(np.asarray([float(x)]))[0]
        if math.isinf(scalar):
            assert math.isinf(array)
        else:
            assert scalar == pytest.approx(array)


@pytest.mark.parametrize("f", ALL_FUNCTIONS, ids=lambda f: repr(f))
@pytest.mark.parametrize("q", [0.0, 0.5, 1.0, 2.5, 5.0, 9.0, 100.0])
def test_capacity_definition(f, q):
    """capacity(q) is the largest integer x with ell(x) <= q."""
    cap = f.capacity(q)
    if cap < 0:
        assert f(0) > q
        return
    cap_checked = min(cap, 10_000)  # AffineLatency slope-0 returns a sentinel
    assert f(cap_checked) <= q + 1e-9
    if cap < 10_000:
        assert f(cap + 1) > q


def test_identity_capacity_floor():
    assert IdentityLatency().capacity(3.7) == 3
    assert IdentityLatency().capacity(4.0) == 4
    assert IdentityLatency().capacity(-1.0) == -1


def test_speed_scaled_capacity_exact_boundary():
    # q * speed integral: 2.0 * 3 = 6 exactly.
    assert SpeedScaledLatency(3.0).capacity(2.0) == 6


def test_mm1_pole_and_capacity():
    f = MM1Latency(4.0)
    assert math.isinf(f(4))
    assert math.isinf(f(5))
    assert f(3) == pytest.approx(1.0)
    assert f.capacity(1.0) == 3
    # Even load 0 has latency 1/4: thresholds below that fit nobody.
    assert f.capacity(0.2) == -1


def test_table_latency_validation():
    with pytest.raises(ValueError):
        TableLatency([])
    with pytest.raises(ValueError):
        TableLatency([1.0, 0.5])  # decreasing
    with pytest.raises(ValueError):
        TableLatency([-1.0, 0.0])


def test_table_latency_out_of_range_is_inf():
    f = TableLatency([0.0, 2.0])
    assert math.isinf(f(2))
    assert f.capacity(5.0) == 1


def test_value_object_semantics():
    assert SpeedScaledLatency(2.0) == SpeedScaledLatency(2.0)
    assert hash(SpeedScaledLatency(2.0)) == hash(SpeedScaledLatency(2.0))
    assert SpeedScaledLatency(2.0) != SpeedScaledLatency(3.0)
    assert IdentityLatency() == IdentityLatency()
    assert IdentityLatency() != SpeedScaledLatency(1.0)


def test_constructor_validation():
    with pytest.raises(ValueError):
        SpeedScaledLatency(0.0)
    with pytest.raises(ValueError):
        AffineLatency(-1.0)
    with pytest.raises(ValueError):
        AffineLatency(0.0, 0.0)
    with pytest.raises(ValueError):
        PolynomialLatency(coeff=0.0)
    with pytest.raises(ValueError):
        PolynomialLatency(degree=0)
    with pytest.raises(ValueError):
        MM1Latency(-1.0)
    with pytest.raises(ValueError):
        CapacityLatency(-1)


class TestLatencyProfile:
    def test_identical_profile_is_affine(self):
        profile = LatencyProfile.identical(5)
        assert profile.is_affine
        loads = np.asarray([0.0, 1, 2, 3, 4])
        assert np.allclose(profile.evaluate(loads), loads)

    def test_related_profile(self):
        profile = LatencyProfile.related([1.0, 2.0, 4.0])
        out = profile.evaluate(np.asarray([4.0, 4.0, 4.0]))
        assert np.allclose(out, [4.0, 2.0, 1.0])

    def test_mixed_profile_not_affine(self):
        profile = LatencyProfile([IdentityLatency(), MM1Latency(8.0)])
        assert not profile.is_affine
        out = profile.evaluate(np.asarray([3.0, 4.0]))
        assert out[0] == pytest.approx(3.0)
        assert out[1] == pytest.approx(0.25)

    def test_grouped_evaluation_matches_per_function(self):
        fns = [IdentityLatency(), MM1Latency(8.0), IdentityLatency(), MM1Latency(8.0)]
        profile = LatencyProfile(fns)
        loads = np.asarray([1.0, 2.0, 3.0, 4.0])
        expected = np.asarray([f(float(x)) for f, x in zip(fns, loads)])
        assert np.allclose(profile.evaluate(loads), expected)

    @pytest.mark.parametrize(
        "fns",
        [
            [IdentityLatency(), SpeedScaledLatency(2.0), AffineLatency(0.5, 1.0)],
            [MM1Latency(8.0), PolynomialLatency(degree=2), MM1Latency(8.0)],
        ],
        ids=["affine", "mm1-polynomial"],
    )
    def test_stacked_evaluation_equals_row_by_row(self, fns):
        profile = LatencyProfile(fns)
        loads = np.arange(12, dtype=np.float64).reshape(4, 3)  # MM1 overloads too
        rows = np.stack([profile.evaluate(row) for row in loads])
        np.testing.assert_array_equal(profile.evaluate(loads), rows)
        np.testing.assert_array_equal(profile.evaluate(loads[None]), rows[None])

    def test_evaluate_at_per_entry(self):
        profile = LatencyProfile.related([1.0, 2.0])
        resources = np.asarray([0, 1, 1, 0])
        loads = np.asarray([2.0, 2.0, 6.0, 0.0])
        out = profile.evaluate_at(resources, loads)
        assert np.allclose(out, [2.0, 1.0, 3.0, 0.0])

    def test_evaluate_at_nonaffine(self):
        profile = LatencyProfile([MM1Latency(8.0), IdentityLatency()])
        out = profile.evaluate_at(np.asarray([0, 1]), np.asarray([4.0, 4.0]))
        assert out[0] == pytest.approx(0.25)
        assert out[1] == pytest.approx(4.0)

    def test_capacities(self):
        profile = LatencyProfile.related([1.0, 2.0])
        assert list(profile.capacities(3.0)) == [3, 6]

    def test_shape_validation(self):
        profile = LatencyProfile.identical(3)
        with pytest.raises(ValueError):
            profile.evaluate(np.zeros(4))
        with pytest.raises(ValueError):
            profile.evaluate(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            profile.evaluate(np.float64(1.0))
        with pytest.raises(ValueError):
            profile.evaluate_at(np.asarray([0]), np.asarray([1.0, 2.0]))

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            LatencyProfile([])

    def test_non_latency_rejected(self):
        with pytest.raises(TypeError):
            LatencyProfile([lambda x: x])  # type: ignore[list-item]
