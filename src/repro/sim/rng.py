"""Deterministic random-number management.

All stochastic components of the library draw from
:class:`numpy.random.Generator` instances (PCG64) that are derived
reproducibly from a single root seed:

- :func:`make_rng` — one generator from a seed;
- :func:`seed_from_key` — a stable seed keyed by arbitrary strings
  (component names), so adding experiments never shifts the streams of
  existing ones.

Every run's seed is recorded with its results, so any figure row can be
regenerated bit-for-bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["make_rng", "seed_from_key"]


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Coerce a seed (or pass through a generator) into a ``Generator``."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def seed_from_key(root_seed: int, *keys: str) -> int:
    """A stable 63-bit seed derived from a root seed and string keys.

    Uses BLAKE2 over the key material, so adding experiments never shifts
    the streams of existing ones (unlike positional spawn indices).
    """
    h = hashlib.blake2b(digest_size=8)
    h.update(str(int(root_seed)).encode())
    for k in keys:
        h.update(b"\x00")
        h.update(str(k).encode())
    return int.from_bytes(h.digest(), "big") >> 1
