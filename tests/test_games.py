"""The satisfaction game's pure equilibria are the stable states: the
exhaustive enumeration oracle agrees with :func:`repro.core.stability.is_stable`."""

from itertools import product

import numpy as np
import pytest

from repro.core.instance import Instance
from repro.core.stability import is_stable
from repro.core.state import State

from conftest import random_small_instance
from oracles import enumerate_stable_states


class TestSatisfactionGame:
    def test_stable_states_match_is_stable(self):
        rng = np.random.default_rng(3)
        inst = random_small_instance(rng, max_n=4, max_m=3, max_q=4)

        expected = 0
        for cand in product(range(inst.n_resources), repeat=inst.n_users):
            if is_stable(State(inst, np.asarray(cand, dtype=np.int64))):
                expected += 1
        found = sum(1 for _ in enumerate_stable_states(inst))
        assert found == expected > 0

    def test_enumeration_limit(self):
        inst = Instance.identical_machines([4.0] * 30, 4)
        with pytest.raises(ValueError):
            list(enumerate_stable_states(inst, limit=10))
