"""Activation schedules: shapes, statistics, fairness."""

import numpy as np
import pytest

from repro.sim.schedule import (
    AlphaSchedule,
    PartitionSchedule,
    StaggeredSchedule,
    SynchronousSchedule,
)


def test_synchronous_all_active(rng):
    s = SynchronousSchedule()
    mask = s.active_mask(0, 10, rng)
    assert mask.all() and mask.shape == (10,)


def test_alpha_statistics():
    rng = np.random.default_rng(0)
    s = AlphaSchedule(0.3)
    total = sum(int(s.active_mask(i, 100, rng).sum()) for i in range(300))
    assert 8_000 < total < 10_000  # expectation 9000


def test_alpha_one_is_synchronous(rng):
    assert AlphaSchedule(1.0).active_mask(0, 5, rng).all()


def test_alpha_validation():
    with pytest.raises(ValueError):
        AlphaSchedule(0.0)
    with pytest.raises(ValueError):
        AlphaSchedule(1.2)


class TestPartition:
    def test_every_user_exactly_once_per_period(self, rng):
        s = PartitionSchedule(4)
        s.reset(20, rng)
        seen = np.zeros(20, dtype=int)
        for r in range(4):
            seen += s.active_mask(r, 20, rng).astype(int)
        assert (seen == 1).all()

    def test_disjoint_blocks(self, rng):
        s = PartitionSchedule(3)
        s.reset(12, rng)
        masks = [s.active_mask(r, 12, rng) for r in range(3)]
        for i in range(3):
            for j in range(i + 1, 3):
                assert not np.any(masks[i] & masks[j])

    def test_repartitions_on_population_change(self, rng):
        s = PartitionSchedule(2)
        s.reset(10, rng)
        mask = s.active_mask(0, 14, rng)  # population grew mid-run
        assert mask.shape == (14,)

    def test_validation(self):
        with pytest.raises(ValueError):
            PartitionSchedule(0)


def test_staggered_exactly_one(rng):
    s = StaggeredSchedule()
    for r in range(50):
        mask = s.active_mask(r, 9, rng)
        assert int(mask.sum()) == 1


def test_staggered_covers_everyone_eventually():
    rng = np.random.default_rng(1)
    s = StaggeredSchedule()
    seen = np.zeros(6, dtype=bool)
    for r in range(300):
        seen |= s.active_mask(r, 6, rng)
    assert seen.all()
