"""Potential functions: definitions, exactness, bounded differences."""

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.latency import LatencyProfile
from repro.core.potential import overload_potential, unsatisfied_count
from repro.core.state import State

from conftest import random_small_instance


def test_unsatisfied_count(small_uniform):
    state = State(small_uniform, np.asarray([0] * 6 + [1] * 3 + [2] * 3))
    assert unsatisfied_count(state) == 6.0
    sat = State(small_uniform, np.asarray([0, 1, 2, 3] * 3))
    assert unsatisfied_count(sat) == 0.0


class TestOverloadPotential:
    def test_zero_iff_satisfying_on_random_states(self):
        rng = np.random.default_rng(3)
        for _ in range(80):
            inst = random_small_instance(rng)
            state = State.uniform_random(inst, rng)
            phi = overload_potential(state)
            assert phi >= 0
            assert (phi == 0) == state.is_satisfying(), (
                inst.thresholds,
                state.assignment,
            )

    def test_counts_minimum_evictions(self):
        # q = [1, 5, 5] all on one machine (m=2): keep the two q=5 users
        # (load 2 <= 5)?  At load 3 even they are fine (3 <= 5) but the q=1
        # is not; evicting just it leaves load 2 <= 5: overload = 1.
        inst = Instance.identical_machines([1.0, 5.0, 5.0], 2)
        state = State(inst, np.asarray([0, 0, 0]))
        assert overload_potential(state) == 1.0

    def test_keeps_high_thresholds(self):
        # q = [2, 2, 2, 9] on one machine: keepable = 2 (load 2 <= 2 needs
        # dropping 2 users; the q=9 plus one q=2).
        inst = Instance.identical_machines([2.0, 2.0, 2.0, 9.0], 2)
        state = State(inst, np.asarray([0] * 4))
        assert overload_potential(state) == 2.0

    def test_bounded_difference_under_single_moves(self):
        """|Phi(after one migration) - Phi(before)| <= 2 for unit weights.

        The mover changes two groups by one member each; each group's
        keepable count changes by at most one.
        """
        rng = np.random.default_rng(31)
        for _ in range(60):
            inst = random_small_instance(rng, max_n=8, max_m=3)
            if inst.n_resources < 2:
                continue
            state = State.uniform_random(inst, rng)
            before = overload_potential(state)
            u = int(rng.integers(0, inst.n_users))
            r = int(rng.integers(0, inst.n_resources))
            state.move_user(u, r)
            after = overload_potential(state)
            assert abs(after - before) <= 2.0 + 1e-9

    def test_requires_unit_weights(self):
        inst = Instance(
            thresholds=np.asarray([2.0]),
            latencies=LatencyProfile.identical(1),
            weights=np.asarray([2.0]),
        )
        with pytest.raises(NotImplementedError):
            overload_potential(State(inst, np.asarray([0])))
