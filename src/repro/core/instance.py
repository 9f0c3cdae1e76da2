"""Instance definition for the QoS load-balancing problem.

An :class:`Instance` bundles everything that defines a problem:

- ``m`` resources with a :class:`~repro.core.latency.LatencyProfile`;
- ``n`` users, each with a QoS threshold ``q_u > 0`` and a weight
  ``w_u > 0`` (unit by default);
- an optional :class:`AccessMap` restricting which resources each user may
  occupy (complete accessibility by default).

Instances are immutable value objects; dynamics happen on
:class:`~repro.core.state.State` objects referencing an instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .latency import IdentityLatency, LatencyProfile
from .memory import csr_offsets, index_dtype, iter_chunks

__all__ = ["AccessMap", "Instance"]


class AccessMap:
    """Which resources each user may occupy, in a flat ragged CSR layout.

    The flat layout (``choices`` + ``offsets``) supports vectorized uniform
    sampling of an accessible resource for an arbitrary subset of users —
    the inner operation of every sampling protocol — without per-user
    Python loops.  ``choices`` and the flat membership keys are stored in
    the narrowest index dtype their value ranges allow (see
    :mod:`repro.core.memory`); at n = 10^6+ this is the difference between
    the access topology fitting in cache or not.

    :meth:`from_csr` is the sparse-first constructor: generators that
    already produce the flat layout (e.g. ``sparse_access``) hand it over
    without materialising per-user Python lists.
    """

    __slots__ = ("n_users", "n_resources", "choices", "offsets", "_keys")

    def __init__(self, allowed: Sequence[Sequence[int]], n_resources: int):
        n_users = len(allowed)
        counts = np.asarray([len(a) for a in allowed], dtype=np.int64)
        if np.any(counts == 0):
            bad = int(np.nonzero(counts == 0)[0][0])
            raise ValueError(f"user {bad} has no accessible resource")
        offsets = csr_offsets(counts)
        choices = np.empty(int(offsets[-1]), dtype=np.int64)
        for u, a in enumerate(allowed):
            arr = np.asarray(sorted(set(int(r) for r in a)), dtype=np.int64)
            if arr.size != len(a):
                raise ValueError(f"user {u} has duplicate accessible resources")
            if arr.size and (arr[0] < 0 or arr[-1] >= n_resources):
                raise ValueError(f"user {u} references an out-of-range resource")
            choices[offsets[u] : offsets[u + 1]] = arr
        self._finalize(choices, offsets, int(n_resources))

    def _finalize(self, choices: np.ndarray, offsets: np.ndarray, n_resources: int):
        """Adopt a validated CSR pair, narrowing storage dtypes.

        ``choices`` must be int64, grouped by user and sorted (strictly
        increasing) within each user's slice; callers have already
        validated ranges and duplicates.
        """
        self.n_users = offsets.size - 1
        self.n_resources = n_resources
        self.offsets = offsets
        self.choices = choices.astype(index_dtype(n_resources), copy=False)
        # Flat membership index: entries are grouped by user (ascending) and
        # sorted by resource within each user, so ``u * m + r`` over the
        # flat layout is globally sorted — one searchsorted answers an
        # arbitrary batch of (user, resource) membership queries.  Built in
        # chunks of flat entries, so the int64 ``owners`` scratch stays
        # bounded by the chunk span whatever the users' degrees.
        keys = np.empty(choices.size, dtype=index_dtype(self.n_users * n_resources))
        for s, e in iter_chunks(choices.size):
            # the users owning entries s .. e - 1, and their entries in [s, e)
            u0 = int(np.searchsorted(offsets, s, side="right")) - 1
            u1 = int(np.searchsorted(offsets, e - 1, side="right"))
            spans = np.diff(np.clip(offsets[u0 : u1 + 1], s, e))
            owners = np.repeat(np.arange(u0, u1, dtype=np.int64), spans)
            owners *= n_resources
            owners += choices[s:e]
            keys[s:e] = owners
        self._keys = keys

    @classmethod
    def from_csr(
        cls, choices: np.ndarray, offsets: np.ndarray, n_resources: int
    ) -> "AccessMap":
        """Sparse-first constructor from a flat CSR layout.

        ``choices[offsets[u]:offsets[u+1]]`` lists user ``u``'s accessible
        resources, which must be strictly increasing (sorted, no
        duplicates).  Validation is fully vectorized — no per-user Python
        loop — so this is the constructor huge generated topologies use.
        Scratch stays bounded: no check builds a full-width int64
        temporary over the flat layout.
        """
        choices = np.ascontiguousarray(choices, dtype=np.int64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        n_resources = int(n_resources)
        if choices.ndim != 1 or offsets.ndim != 1 or offsets.size < 1:
            raise ValueError("choices and offsets must be 1-D, offsets non-empty")
        if offsets[0] != 0 or offsets[-1] != choices.size:
            raise ValueError("offsets must start at 0 and end at choices.size")
        if np.any(offsets[1:] < offsets[:-1]):
            raise ValueError("offsets must be non-decreasing")
        empty = offsets[1:] == offsets[:-1]
        if np.any(empty):
            raise ValueError(f"user {int(np.flatnonzero(empty)[0])} has no accessible resource")
        if choices.size and (choices.min() < 0 or choices.max() >= n_resources):
            oob = (choices < 0) | (choices >= n_resources)
            pos = int(np.nonzero(oob)[0][0])
            u = int(np.searchsorted(offsets, pos, side="right")) - 1
            raise ValueError(f"user {u} references an out-of-range resource")
        # Within-user monotonicity, one chunk of positions at a time:
        # position p compares choices[p + 1] with choices[p] and is exempt
        # when p + 1 starts a user's slice (every slice is non-empty, so
        # the slice starts are exactly offsets[1:-1]).
        starts = offsets[1:-1]
        for s, e in iter_chunks(choices.size - 1):
            bad = choices[s + 1 : e + 1] <= choices[s:e]
            lo, hi = np.searchsorted(starts, [s + 1, e + 1])
            bad[starts[lo:hi] - 1 - s] = False
            if bad.any():
                pos = s + int(np.argmax(bad))
                u = int(np.searchsorted(offsets, pos, side="right")) - 1
                if choices[pos + 1] == choices[pos]:
                    raise ValueError(f"user {u} has duplicate accessible resources")
                raise ValueError(
                    f"user {u} accessible resources must be sorted ascending"
                )
        obj = cls.__new__(cls)
        obj._finalize(choices, offsets, n_resources)
        return obj

    @classmethod
    def complete(cls, n_users: int, n_resources: int) -> "AccessMap":
        """Every user may use every resource."""
        choices = np.tile(np.arange(n_resources, dtype=np.int64), n_users)
        offsets = np.arange(n_users + 1, dtype=np.int64) * n_resources
        return cls.from_csr(choices, offsets, n_resources)

    def allowed(self, u: int) -> np.ndarray:
        """Resources accessible to user ``u`` (sorted)."""
        return self.choices[self.offsets[u] : self.offsets[u + 1]]

    def is_complete(self) -> bool:
        return bool(np.all(np.diff(self.offsets) == self.n_resources))

    def contains(self, users: np.ndarray, resources: np.ndarray) -> np.ndarray:
        """Vectorized membership: may ``users[i]`` occupy ``resources[i]``?

        One binary search over the flat key index per query entry — no
        per-user Python loop.  Out-of-range resources are simply absent.
        """
        users = np.asarray(users, dtype=np.int64)
        resources = np.asarray(resources, dtype=np.int64)
        out = np.zeros(users.shape, dtype=bool)
        if users.size == 0:
            return out
        valid = (resources >= 0) & (resources < self.n_resources)
        valid &= (users >= 0) & (users < self.n_users)
        keys64 = users * self.n_resources + resources
        # Cast needles to the (possibly narrowed) key dtype so searchsorted
        # never promote-copies the haystack.  Valid keys fit by
        # construction; invalid entries are zeroed before the cast so it
        # cannot wrap, and are masked out of the answer regardless.
        keys = np.where(valid, keys64, 0).astype(self._keys.dtype, copy=False)
        pos = np.searchsorted(self._keys, keys)
        inb = valid & (pos < self._keys.size)
        out[inb] = self._keys[pos[inb]] == keys[inb]
        return out

    def contains_one(self, u: int, r: int) -> bool:
        """Scalar membership check (the ``move_user`` fast path)."""
        if not (0 <= u < self.n_users) or not (0 <= r < self.n_resources):
            return False
        key = self._keys.dtype.type(u * self.n_resources + r)
        pos = int(np.searchsorted(self._keys, key))
        return pos < self._keys.size and int(self._keys[pos]) == key

    def sample(self, users: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Uniformly sample one accessible resource per listed user.

        Fully vectorized: draws a uniform fractional position inside each
        user's slice of the flat ``choices`` array.
        """
        users = np.asarray(users, dtype=np.int64)
        lo = self.offsets[users]
        span = self.offsets[users + 1] - lo
        pos = lo + rng.integers(0, span)
        return self.choices[pos]


@dataclass(frozen=True)
class Instance:
    """An immutable QoS load-balancing instance.

    Parameters
    ----------
    thresholds:
        Per-user QoS requirements ``q_u > 0`` (latency upper bounds).
        Stored read-only; a uniform column is kept as a zero-stride view
        of its one value (see :func:`_column`), still shape ``(n,)``.
    latencies:
        Per-resource latency functions; see
        :class:`~repro.core.latency.LatencyProfile`.
    weights:
        Per-user congestion weights (default: all ones, stored like a
        uniform ``thresholds`` column).  Feasibility
        theory and the exact centralized baselines require unit weights;
        the simulation engine supports arbitrary positive weights.
    access:
        Optional accessibility restriction; ``None`` means complete.
    name:
        Free-form label used in traces and experiment tables.
    """

    thresholds: np.ndarray
    latencies: LatencyProfile
    weights: np.ndarray = field(default=None)  # type: ignore[assignment]
    access: AccessMap | None = None
    name: str = "instance"

    def __post_init__(self):
        thresholds = np.asarray(self.thresholds, dtype=np.float64)
        if thresholds.ndim != 1 or thresholds.size == 0:
            raise ValueError("thresholds must be a non-empty 1-D array")
        # min/max propagate NaN, so two reductions per array check
        # positivity and finiteness and also tell whether it is uniform.
        q_lo, q_hi = thresholds.min(), thresholds.max()
        if not (q_lo > 0 and np.isfinite(q_hi)):
            raise ValueError("thresholds must be positive and finite")
        object.__setattr__(self, "thresholds", _column(thresholds, q_lo, q_hi))

        if not isinstance(self.latencies, LatencyProfile):
            raise TypeError("latencies must be a LatencyProfile")

        weights = self.weights
        if weights is None:
            weights = np.broadcast_to(np.float64(1.0), thresholds.shape)
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != thresholds.shape:
            raise ValueError("weights must match thresholds in shape")
        w_lo, w_hi = weights.min(), weights.max()
        if not (w_lo > 0 and np.isfinite(w_hi)):
            raise ValueError("weights must be positive and finite")
        object.__setattr__(self, "weights", _column(weights, w_lo, w_hi))
        object.__setattr__(self, "_uniform", (bool(q_lo == q_hi), bool(w_lo == w_hi == 1.0)))

        if self.access is not None:
            if self.access.n_users != thresholds.size:
                raise ValueError("access map user count mismatch")
            if self.access.n_resources != len(self.latencies):
                raise ValueError("access map resource count mismatch")

        # NumPy arrays make the dataclass unhashable anyway; freeze arrays
        # to catch accidental mutation of a shared instance.
        self.thresholds.setflags(write=False)
        self.weights.setflags(write=False)

    # -- basic shape -----------------------------------------------------------

    @property
    def n_users(self) -> int:
        return int(self.thresholds.size)

    @property
    def n_resources(self) -> int:
        return len(self.latencies)

    @property
    def uniform_thresholds(self) -> bool:
        """True when every user has the same threshold."""
        return self._uniform[0]

    @property
    def unit_weights(self) -> bool:
        return self._uniform[1]

    @property
    def identical_resources(self) -> bool:
        """True when every resource has the identity latency ``ell(x) = x``."""
        return all(isinstance(f, IdentityLatency) for f in self.latencies.functions)

    def accessible(self, u: int) -> np.ndarray:
        """Resources user ``u`` may occupy."""
        if self.access is None:
            return np.arange(self.n_resources, dtype=np.int64)
        return self.access.allowed(u)

    # -- convenience constructors ----------------------------------------------

    @classmethod
    def identical_machines(
        cls,
        thresholds: Sequence[float] | np.ndarray,
        n_resources: int,
        *,
        name: str = "identical",
    ) -> "Instance":
        """Identical machines (``ell(x) = x``), complete accessibility."""
        return cls(
            thresholds=np.asarray(thresholds, dtype=np.float64),
            latencies=LatencyProfile.identical(n_resources),
            name=name,
        )

    @classmethod
    def related_machines(
        cls,
        thresholds: Sequence[float] | np.ndarray,
        speeds: Sequence[float],
        *,
        name: str = "related",
    ) -> "Instance":
        """Uniformly related machines (``ell_r(x) = x / s_r``)."""
        return cls(
            thresholds=np.asarray(thresholds, dtype=np.float64),
            latencies=LatencyProfile.related(speeds),
            name=name,
        )

    # -- derived quantities ------------------------------------------------------

    def capacity_for(self, q: float) -> np.ndarray:
        """Per-resource capacity at threshold ``q``."""
        return self.latencies.capacities(q)

    def describe(self) -> dict:
        """Summary dict used by traces and the CLI."""
        return {
            "name": self.name,
            "n_users": self.n_users,
            "n_resources": self.n_resources,
            "unit_weights": self.unit_weights,
            "identical_resources": self.identical_resources,
            "threshold_min": float(self.thresholds.min()),
            "threshold_max": float(self.thresholds.max()),
            "threshold_mean": float(self.thresholds.mean()),
            "complete_access": self.access is None or self.access.is_complete(),
        }


def _column(values: np.ndarray, lo: np.float64, hi: np.float64) -> np.ndarray:
    """A validated per-user float64 column as the instance stores it.

    A uniform column (``lo == hi``) becomes a read-only zero-stride view of
    its one value: still shape ``(n,)`` float64, so every gather and
    comparison sees the same IEEE values, but 8 bytes instead of 8n.  The
    view is built from the scalar, so it holds no reference to the
    caller's array.
    """
    if lo == hi and values.strides != (0,):
        return np.broadcast_to(np.float64(lo), values.shape)
    return values
