"""Latency (inverse-quality) functions of resource congestion.

In the QoS load-balancing model a resource ``r`` serves its users at a
quality level that degrades with congestion.  We follow the standard
convention of the load-balancing literature and express quality as a
*latency* ``ell_r(x)`` that is non-decreasing in the congestion ``x`` (the
number of users on ``r``, or their total weight).  A user with QoS
requirement ``q`` is satisfied on ``r`` iff ``ell_r(x_r) <= q``.

This module provides a small library of latency families that covers the
cases the theory cares about:

- :class:`IdentityLatency` — identical machines, ``ell(x) = x`` (the
  canonical model of the paper);
- :class:`SpeedScaledLatency` — uniformly related machines ``x / s``;
- :class:`AffineLatency` — ``a*x + b``;
- :class:`PolynomialLatency` — ``c * x**d + b``;
- :class:`MM1Latency` — queueing-style ``1 / (mu - x)`` with a hard pole;
- :class:`CapacityLatency` — hard capacity (0 below, +inf above);
- :class:`TableLatency` — arbitrary non-decreasing table.

All functions evaluate vectorized over NumPy arrays of loads, and expose
:meth:`LatencyFunction.capacity`, the largest congestion at which the
latency still meets a threshold ``q`` — the quantity feasibility theory and
the centralized baselines are built on.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = [
    "LatencyFunction",
    "IdentityLatency",
    "SpeedScaledLatency",
    "AffineLatency",
    "PolynomialLatency",
    "MM1Latency",
    "CapacityLatency",
    "UnavailableLatency",
    "TableLatency",
    "LatencyProfile",
]

#: Congestion values are searched up to this bound when no closed-form
#: capacity inverse exists.  2**40 users on one resource is far beyond any
#: instance this library simulates.
_CAPACITY_SEARCH_BOUND = 2**40


class LatencyFunction(ABC):
    """A non-decreasing map from congestion to latency.

    Subclasses must be stateless value objects: equal parameters compare
    equal and hash equal, which lets :class:`LatencyProfile` group resources
    sharing a function and evaluate each distinct function once per round.
    """

    __slots__ = ()

    @abstractmethod
    def __call__(self, x: np.ndarray | float) -> np.ndarray | float:
        """Evaluate the latency at congestion ``x`` (scalar or array).

        Implementations must be vectorized (accept ``numpy`` arrays) and
        must return ``+inf`` rather than raising for out-of-domain loads.
        """

    def capacity(self, q: float) -> int:
        """Largest integer congestion ``x >= 0`` with ``ell(x) <= q``.

        Returns ``-1`` when even an empty resource exceeds ``q`` (possible
        for latencies with a positive offset, e.g. ``AffineLatency(1, 5)``
        against ``q = 3``), so that ``capacity(q) + 1`` is always the number
        of *additional* users a resource at load ``-...`` could take.

        The generic implementation is a monotone bisection; subclasses with
        closed forms override it.
        """
        if self(0) > q:
            return -1
        lo, hi = 0, 1
        while hi < _CAPACITY_SEARCH_BOUND and self(hi) <= q:
            lo, hi = hi, hi * 2
        if hi >= _CAPACITY_SEARCH_BOUND:
            return _CAPACITY_SEARCH_BOUND
        # invariant: ell(lo) <= q < ell(hi)
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if self(mid) <= q:
                lo = mid
            else:
                hi = mid
        return lo

    def capacity_vec(self, qs: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`capacity` over an array of thresholds.

        The generic implementation loops over the scalar method (bit-exact
        by construction); families with closed forms override it with the
        array expression mirroring their scalar formula exactly.
        """
        qs = np.asarray(qs, dtype=np.float64)
        return np.asarray([self.capacity(float(q)) for q in qs], dtype=np.int64)

    # -- value-object protocol -------------------------------------------------

    def _key(self) -> tuple:
        """Identity key; subclasses include their parameters."""
        return (type(self),)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LatencyFunction):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        cls, *params = self._key()
        args = ", ".join(repr(p) for p in params)
        return f"{cls.__name__}({args})"


class IdentityLatency(LatencyFunction):
    """Identical machines: ``ell(x) = x``.

    This is the canonical model: a user with threshold ``q`` tolerates
    sharing its resource with at most ``q - 1`` other (unit-weight) users.
    """

    __slots__ = ()

    def __call__(self, x):
        return np.asarray(x, dtype=np.float64) if isinstance(x, np.ndarray) else float(x)

    def capacity(self, q: float) -> int:
        if q < 0:
            return -1
        return int(math.floor(q))

    def capacity_vec(self, qs):
        qs = np.asarray(qs, dtype=np.float64)
        return np.where(qs < 0, -1, np.floor(qs)).astype(np.int64)


class SpeedScaledLatency(LatencyFunction):
    """Uniformly related machines: ``ell(x) = x / speed``."""

    __slots__ = ("speed",)

    def __init__(self, speed: float):
        if speed <= 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.speed = float(speed)

    def __call__(self, x):
        return np.asarray(x, dtype=np.float64) / self.speed if isinstance(x, np.ndarray) else float(x) / self.speed

    def capacity(self, q: float) -> int:
        if q < 0:
            return -1
        # floor with a tolerance so that q * speed that is integral up to
        # floating-point noise is not rounded down.
        return int(math.floor(q * self.speed + 1e-9))

    def capacity_vec(self, qs):
        qs = np.asarray(qs, dtype=np.float64)
        return np.where(qs < 0, -1, np.floor(qs * self.speed + 1e-9)).astype(np.int64)

    def _key(self):
        return (type(self), self.speed)


class AffineLatency(LatencyFunction):
    """``ell(x) = slope * x + offset`` with ``slope >= 0``, ``offset >= 0``."""

    __slots__ = ("slope", "offset")

    def __init__(self, slope: float, offset: float = 0.0):
        if slope < 0 or offset < 0:
            raise ValueError("slope and offset must be non-negative")
        if slope == 0 and offset == 0:
            raise ValueError("latency cannot be identically zero with zero slope unless offset > 0; use CapacityLatency for free resources")
        self.slope = float(slope)
        self.offset = float(offset)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.slope * np.asarray(x, dtype=np.float64) + self.offset
        return self.slope * float(x) + self.offset

    def capacity(self, q: float) -> int:
        if q < self.offset:
            return -1
        if self.slope == 0:
            return _CAPACITY_SEARCH_BOUND
        return int(math.floor((q - self.offset) / self.slope + 1e-9))

    def capacity_vec(self, qs):
        qs = np.asarray(qs, dtype=np.float64)
        if self.slope == 0:
            return np.where(qs < self.offset, -1, _CAPACITY_SEARCH_BOUND).astype(np.int64)
        caps = np.floor((qs - self.offset) / self.slope + 1e-9)
        return np.where(qs < self.offset, -1, caps).astype(np.int64)

    def _key(self):
        return (type(self), self.slope, self.offset)


class PolynomialLatency(LatencyFunction):
    """``ell(x) = coeff * x**degree + offset`` (degree >= 1)."""

    __slots__ = ("coeff", "degree", "offset")

    def __init__(self, coeff: float = 1.0, degree: int = 2, offset: float = 0.0):
        if coeff <= 0:
            raise ValueError("coeff must be positive")
        if degree < 1:
            raise ValueError("degree must be >= 1")
        if offset < 0:
            raise ValueError("offset must be non-negative")
        self.coeff = float(coeff)
        self.degree = int(degree)
        self.offset = float(offset)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return self.coeff * np.asarray(x, dtype=np.float64) ** self.degree + self.offset
        return self.coeff * float(x) ** self.degree + self.offset

    def capacity(self, q: float) -> int:
        if q < self.offset:
            return -1
        return int(math.floor(((q - self.offset) / self.coeff) ** (1.0 / self.degree) + 1e-9))

    def _key(self):
        return (type(self), self.coeff, self.degree, self.offset)


class MM1Latency(LatencyFunction):
    """Queueing-delay-style latency ``ell(x) = 1 / (mu - x)`` for ``x < mu``.

    Loads at or above the service rate ``mu`` map to ``+inf`` — the resource
    is saturated and can satisfy nobody.  This family exercises protocols on
    sharply convex latencies with a pole, where the margin between
    "satisfying" and "useless" is a single user.
    """

    __slots__ = ("mu",)

    def __init__(self, mu: float):
        if mu <= 0:
            raise ValueError("service rate mu must be positive")
        self.mu = float(mu)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            x = np.asarray(x, dtype=np.float64)
            out = np.full_like(x, np.inf)
            ok = x < self.mu
            out[ok] = 1.0 / (self.mu - x[ok])
            return out
        x = float(x)
        return 1.0 / (self.mu - x) if x < self.mu else math.inf

    def capacity(self, q: float) -> int:
        # ell(0) = 1/mu is the minimum latency; thresholds below it fit
        # nobody.  (This check also keeps 1/q from overflowing for
        # subnormal q.)
        if q <= 0 or q < 1.0 / self.mu:
            return -1
        cap = int(math.floor(self.mu - 1.0 / q + 1e-9))
        return cap if cap >= 0 and self(cap) <= q else -1

    def _key(self):
        return (type(self), self.mu)


class CapacityLatency(LatencyFunction):
    """Hard-capacity latency: ``0`` up to ``cap`` users, ``+inf`` above.

    Models admission-control resources: quality is perfect until the
    capacity is exceeded, then service collapses.
    """

    __slots__ = ("cap",)

    def __init__(self, cap: int):
        if cap < 0:
            raise ValueError("capacity must be non-negative")
        self.cap = int(cap)

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            x = np.asarray(x, dtype=np.float64)
            return np.where(x <= self.cap, 0.0, np.inf)
        return 0.0 if float(x) <= self.cap else math.inf

    def capacity(self, q: float) -> int:
        return self.cap if q >= 0 else -1

    def capacity_vec(self, qs):
        qs = np.asarray(qs, dtype=np.float64)
        return np.where(qs >= 0, self.cap, -1).astype(np.int64)

    def _key(self):
        return (type(self), self.cap)


class UnavailableLatency(LatencyFunction):
    """A crashed/offline resource: infinite latency at every congestion.

    Used by failure-injection events (:mod:`repro.sim.events`): users
    stranded on a failed resource become unsatisfied and migrate away via
    the ordinary protocol — self-stabilisation, not special-cased repair.
    """

    __slots__ = ()

    def __call__(self, x):
        if isinstance(x, np.ndarray):
            return np.full(np.asarray(x).shape, np.inf)
        return math.inf

    def capacity(self, q: float) -> int:
        return -1


class TableLatency(LatencyFunction):
    """Latency given by an explicit non-decreasing table.

    ``values[x]`` is the latency at congestion ``x``; congestions beyond the
    table map to ``+inf``.  Useful for measured latency curves and for
    adversarial constructions in tests.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[float]):
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("values must be a non-empty 1-D sequence")
        if np.any(np.diff(arr) < 0):
            raise ValueError("latency table must be non-decreasing")
        if np.any(arr < 0):
            raise ValueError("latencies must be non-negative")
        self.values = tuple(float(v) for v in arr)

    def __call__(self, x):
        table = np.asarray(self.values)
        if isinstance(x, np.ndarray):
            xi = np.asarray(x, dtype=np.int64)
            out = np.full(xi.shape, np.inf)
            ok = (xi >= 0) & (xi < table.size)
            out[ok] = table[xi[ok]]
            return out
        xi = int(x)
        return self.values[xi] if 0 <= xi < len(self.values) else math.inf

    def capacity(self, q: float) -> int:
        table = np.asarray(self.values)
        ok = np.nonzero(table <= q)[0]
        return int(ok[-1]) if ok.size else -1

    def _key(self):
        return (type(self), self.values)


class LatencyProfile:
    """The per-resource latency functions of an instance, evaluated fast.

    The simulation engine needs ``ell_r(x_r)`` for *all* resources every
    round.  Looping over resources in Python would dominate the runtime, so
    the profile groups resources by their (value-equal) latency function and
    evaluates each distinct function once over the loads of its group.  For
    the very common special case where every function is affine-equivalent
    (identity / speed-scaled / affine) the profile collapses to two arrays
    and evaluation is a single fused NumPy expression.
    """

    __slots__ = ("functions", "_groups", "_slopes", "_offsets", "_affine")

    def __init__(self, functions: Sequence[LatencyFunction]):
        if len(functions) == 0:
            raise ValueError("a profile needs at least one resource")
        self.functions: tuple[LatencyFunction, ...] = tuple(functions)
        for f in self.functions:
            if not isinstance(f, LatencyFunction):
                raise TypeError(f"expected LatencyFunction, got {type(f)!r}")

        # Group resource indices by distinct function.
        groups: dict[LatencyFunction, list[int]] = {}
        for r, f in enumerate(self.functions):
            groups.setdefault(f, []).append(r)
        self._groups: list[tuple[LatencyFunction, np.ndarray]] = [
            (f, np.asarray(idx, dtype=np.intp)) for f, idx in groups.items()
        ]

        # Affine fast path: ell_r(x) = slope_r * x + offset_r.
        slopes = np.empty(len(self.functions))
        offsets = np.empty(len(self.functions))
        affine = True
        for r, f in enumerate(self.functions):
            if isinstance(f, IdentityLatency):
                slopes[r], offsets[r] = 1.0, 0.0
            elif isinstance(f, SpeedScaledLatency):
                slopes[r], offsets[r] = 1.0 / f.speed, 0.0
            elif isinstance(f, AffineLatency):
                slopes[r], offsets[r] = f.slope, f.offset
            else:
                affine = False
                break
        self._affine = affine
        self._slopes = slopes if affine else None
        self._offsets = offsets if affine else None

    def __len__(self) -> int:
        return len(self.functions)

    def __getitem__(self, r: int) -> LatencyFunction:
        return self.functions[r]

    @property
    def is_affine(self) -> bool:
        """True when every resource has an affine latency (fast path)."""
        return self._affine

    @classmethod
    def identical(cls, m: int) -> "LatencyProfile":
        """``m`` identical machines with ``ell(x) = x``."""
        f = IdentityLatency()
        return cls([f] * m)

    @classmethod
    def related(cls, speeds: Sequence[float]) -> "LatencyProfile":
        """Uniformly related machines with the given speeds."""
        return cls([SpeedScaledLatency(s) for s in speeds])

    def evaluate(self, loads: np.ndarray) -> np.ndarray:
        """``ell_r(loads[..., r])`` for every resource, as a float array of
        the shape of ``loads`` — one load vector ``(m,)`` or a stack of
        them ``(..., m)``."""
        loads = np.asarray(loads)
        if loads.ndim == 0 or loads.shape[-1] != len(self.functions):
            raise ValueError(
                f"loads must have shape (..., {len(self.functions)}), got {loads.shape}"
            )
        if self._affine:
            return self._slopes * loads + self._offsets
        out = np.empty(loads.shape)
        for f, idx in self._groups:
            out[..., idx] = f(loads[..., idx].astype(np.float64))
        return out

    def evaluate_at(self, resources: np.ndarray, loads: np.ndarray) -> np.ndarray:
        """``ell_{resources[i]}(loads[i])`` — per-entry hypothetical loads.

        Used for would-I-be-satisfied checks where each sampling user probes
        a different resource at a different hypothetical congestion.
        """
        resources = np.asarray(resources, dtype=np.intp)
        loads = np.asarray(loads, dtype=np.float64)
        if resources.shape != loads.shape:
            raise ValueError("resources and loads must have matching shapes")
        if self._affine:
            return self._slopes[resources] * loads + self._offsets[resources]
        if len(self._groups) == 1:  # homogeneous profile: no grouping scan
            return self._groups[0][0](loads)
        out = np.empty(resources.shape)
        # Group by resource function: evaluate each distinct function over
        # the entries probing one of its resources.
        for f, idx in self._groups:
            mask = np.isin(resources, idx)
            if np.any(mask):
                out[mask] = f(loads[mask])
        return out

    def capacities(self, q: float) -> np.ndarray:
        """Per-resource capacity at threshold ``q`` (see ``LatencyFunction.capacity``)."""
        out = np.empty(len(self.functions), dtype=np.int64)
        for f, idx in self._groups:
            out[idx] = f.capacity(q)
        return out

    def capacities_at(self, resources: np.ndarray, qs: np.ndarray) -> np.ndarray:
        """``capacity`` of ``resources[i]`` at threshold ``qs[i]``, vectorized.

        The per-entry analogue of :meth:`evaluate_at`: entries are grouped
        by distinct latency function and each group is answered with one
        :meth:`LatencyFunction.capacity_vec` call — the hot path of
        load-adaptive migration rates.
        """
        resources = np.asarray(resources, dtype=np.intp)
        qs = np.asarray(qs, dtype=np.float64)
        if resources.shape != qs.shape:
            raise ValueError("resources and qs must have matching shapes")
        if len(self._groups) == 1:  # homogeneous profile: no grouping scan
            return np.asarray(self._groups[0][0].capacity_vec(qs), dtype=np.int64)
        out = np.empty(resources.shape, dtype=np.int64)
        for f, idx in self._groups:
            mask = np.isin(resources, idx)
            if np.any(mask):
                out[mask] = f.capacity_vec(qs[mask])
        return out
