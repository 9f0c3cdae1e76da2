"""Seeding utilities: determinism and stream independence."""

import numpy as np

from repro.sim.rng import make_rng, seed_from_key


def test_make_rng_deterministic():
    assert make_rng(5).random() == make_rng(5).random()
    gen = np.random.default_rng(1)
    assert make_rng(gen) is gen


def test_seed_from_key_stable_and_sensitive():
    s1 = seed_from_key(7, "alpha", "beta")
    assert s1 == seed_from_key(7, "alpha", "beta")
    assert s1 != seed_from_key(7, "alpha", "gamma")
    assert s1 != seed_from_key(8, "alpha", "beta")
    # key concatenation must not be ambiguous: ("ab","c") != ("a","bc")
    assert seed_from_key(1, "ab", "c") != seed_from_key(1, "a", "bc")
    assert 0 <= s1 < 2**63
