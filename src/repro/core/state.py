"""Mutable assignment state and vectorized state queries.

A :class:`State` is the dynamic object the protocols act on: the current
assignment of users to resources plus the (incrementally maintained) load
vector.  All queries the protocols need every round — per-resource
latencies, the satisfied-user mask, hypothetical "would I be satisfied
there?" checks — are vectorized NumPy operations; the engine never loops
over users in Python.

Loads are stored as ``float64``.  For unit-weight instances every load is a
small integer, which ``float64`` represents exactly, so integer-exact
feasibility logic remains sound.

Query caching
-------------

``resource_latencies()``, ``user_latencies()`` and ``satisfied_mask()`` are
called from many sites per round (the engine's convergence check, every
protocol's mover selection, rate rules, the recorder, stability checks).
They are memoized against a **generation counter** (:attr:`State.version`)
that every mutation — construction, :meth:`apply_migrations`,
:meth:`move_user` — bumps, so each round evaluates the latency profile once
and all call sites share the result.  Cached arrays are returned with
``writeable=False``; callers that need a scratch buffer must copy.

With uniform thresholds ``satisfied_mask()`` compares the m resource
latencies against ``q`` and gathers the resulting bools by assignment, so
the n-long float ``user_latencies()`` is built only when a caller asks
for it.

The contract for code that mutates ``state.loads`` or ``state.assignment``
directly (none in this library — events and the open-system runner build
fresh states) is to call :meth:`invalidate_caches` afterwards.  The cache
can be globally disabled (:func:`caching_disabled`) so differential tests
can prove cached and uncached runs are bit-identical.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

import numpy as np

from .instance import Instance
from .memory import index_dtype, iter_chunks

__all__ = ["State", "caching_disabled", "cache_stats", "reset_cache_stats", "CACHE_STATS"]


class _CacheStats:
    """Process-global hit/miss tally for the query memoization layer.

    Two bare integer increments per :meth:`State.cached` call — cheap
    enough to stay always-on, so the telemetry layer (:mod:`repro.obs`)
    and the bench harness can report cache effectiveness without adding a
    branch to the hot path.  With caching disabled every call tallies as a
    miss (it recomputes).
    """

    __slots__ = ("hits", "misses")

    def __init__(self):
        self.hits = 0
        self.misses = 0


CACHE_STATS = _CacheStats()


def cache_stats() -> dict[str, int]:
    """Cumulative query-cache hits/misses for this process."""
    return {"hits": CACHE_STATS.hits, "misses": CACHE_STATS.misses}


def reset_cache_stats() -> None:
    CACHE_STATS.hits = 0
    CACHE_STATS.misses = 0


class _CacheSwitch:
    """Process-global cache toggle (differential testing hook)."""

    __slots__ = ("enabled",)

    def __init__(self):
        self.enabled = True


CACHING = _CacheSwitch()


@contextmanager
def caching_disabled():
    """Temporarily disable all :class:`State` query memoization.

    Every query recomputes from ``loads``/``assignment`` on each call —
    the uncached reference behaviour the equivalence tests compare against.
    """
    previous = CACHING.enabled
    CACHING.enabled = False
    try:
        yield
    finally:
        CACHING.enabled = previous


def loads_of(instance: Instance, assignment: np.ndarray) -> np.ndarray:
    """Per-resource float64 load of one assignment row.

    With unit weights this is an integer count cast to float64 — the
    same values as summing 1.0s, exactly — so the zero-stride weight
    column is never copied out to a contiguous n-array.  The count is an
    unbuffered ``np.add.at``, which reads a narrow assignment in place
    where ``bincount`` would first widen it to a full intp copy.
    """
    m = instance.n_resources
    if instance.unit_weights:
        counts = np.zeros(m, dtype=np.int64)
        np.add.at(counts, assignment, 1)
        return counts.astype(np.float64)
    return np.bincount(assignment, weights=instance.weights, minlength=m)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


class State:
    """Assignment of users to resources, with incremental load tracking."""

    __slots__ = ("instance", "assignment", "loads", "_version", "_cache")

    def __init__(self, instance: Instance, assignment: np.ndarray):
        assignment = np.asarray(assignment)
        if assignment.dtype.kind not in "iu":
            assignment = assignment.astype(np.int64)
        if assignment.shape != (instance.n_users,):
            raise ValueError(
                f"assignment must have shape ({instance.n_users},), got {assignment.shape}"
            )
        if assignment.size and (assignment.min() < 0 or assignment.max() >= instance.n_resources):
            raise ValueError("assignment references an out-of-range resource")
        if instance.access is not None:
            ok = instance.access.contains(
                np.arange(instance.n_users), assignment
            )
            if not np.all(ok):
                bad = int(np.nonzero(~ok)[0][0])
                raise ValueError(
                    f"user {bad} assigned to inaccessible resource {int(assignment[bad])}"
                )
        # Narrow only after the range checks above: casting first could
        # wrap an out-of-range value back into range and hide the bug.
        # ``astype`` copies, so the caller's array is never aliased.
        self._adopt(instance, assignment.astype(index_dtype(instance.n_resources)))

    def _adopt(self, instance: Instance, assignment: np.ndarray) -> None:
        """Bind a valid assignment, already in ``index_dtype(m)``, that
        this state owns from now on."""
        self.instance = instance
        self.assignment = assignment
        self.loads = loads_of(instance, assignment)
        self._version = 0
        self._cache: dict = {}

    # -- constructors ------------------------------------------------------------

    @classmethod
    def uniform_random(cls, instance: Instance, rng: np.random.Generator) -> "State":
        """Each user starts on a uniformly random accessible resource.

        This is the canonical adversary-free initial state of the dynamics
        literature; protocols must converge from *any* initial state, which
        tests exercise via :meth:`worst_case_pile`.
        """
        if instance.access is None:
            assignment = rng.integers(0, instance.n_resources, size=instance.n_users)
        else:
            assignment = instance.access.sample(np.arange(instance.n_users), rng)
        return cls(instance, assignment)

    @classmethod
    def worst_case_pile(cls, instance: Instance, resource: int = 0) -> "State":
        """All users piled on one resource — the adversarial initial state.

        Under an access topology each user piles on ``resource`` when
        accessible, else on its first (smallest-index) accessible resource;
        both branches are vectorized over the flat access layout.
        """
        if not (0 <= resource < instance.n_resources):
            raise ValueError("resource out of range")
        # Built in the narrow index dtype a state stores and adopted as it
        # is: valid by construction, so no int64 column and no copy.
        dtype = index_dtype(instance.n_resources)
        if instance.access is not None:
            access = instance.access
            # choices is sorted per user, so the slice head is the first
            # accessible resource; the owners of the flat entries equal to
            # ``resource`` move there instead.
            assignment = access.choices[access.offsets[:-1]]
            hits = np.flatnonzero(access.choices == resource)
            assignment[access.offsets.searchsorted(hits, side="right") - 1] = resource
        else:
            assignment = np.full(instance.n_users, resource, dtype=dtype)
        state = cls.__new__(cls)
        state._adopt(instance, assignment)
        return state

    def copy(self) -> "State":
        clone = State.__new__(State)
        clone.instance = self.instance
        clone.assignment = self.assignment.copy()
        clone.loads = self.loads.copy()
        clone._version = self._version
        # Entries are (version, frozen array); the clone starts at the same
        # version with identical data, so sharing the *values* is sound —
        # the dict itself must be a fresh object so diverging versions
        # never cross-pollinate.
        clone._cache = dict(self._cache)
        return clone

    # -- cache plumbing ----------------------------------------------------------

    @property
    def version(self) -> int:
        """Generation counter: bumped by every mutation."""
        return self._version

    def invalidate_caches(self) -> None:
        """Drop memoized queries after direct mutation of ``loads``/``assignment``.

        All mutation through :meth:`apply_migrations`/:meth:`move_user`
        invalidates automatically; this hook exists for external code that
        edits the arrays in place.
        """
        self._version += 1

    def cached(self, key: str, compute: Callable[["State"], object]):
        """Memoize ``compute(self)`` under ``key`` for the current version.

        Shared infrastructure for derived per-round quantities (e.g.
        :func:`repro.core.stability.satisfied_resident_min`).  The computed
        value is returned as-is; array values should be frozen by the
        caller if they are handed out repeatedly.
        """
        if not CACHING.enabled:
            CACHE_STATS.misses += 1
            return compute(self)
        hit = self._cache.get(key)
        if hit is not None and hit[0] == self._version:
            CACHE_STATS.hits += 1
            return hit[1]
        CACHE_STATS.misses += 1
        value = compute(self)
        self._cache[key] = (self._version, value)
        return value

    # -- queries -----------------------------------------------------------------

    def resource_latencies(self) -> np.ndarray:
        """``ell_r(x_r)`` for every resource (cached, read-only)."""
        return self.cached(
            "resource_latencies",
            lambda s: _frozen(s.instance.latencies.evaluate(s.loads)),
        )

    def user_latencies(self) -> np.ndarray:
        """Latency experienced by each user (cached, read-only)."""
        return self.cached(
            "user_latencies",
            lambda s: _frozen(s.resource_latencies()[s.assignment]),
        )

    def satisfied_mask(self) -> np.ndarray:
        """Boolean mask: is each user's QoS requirement met? (cached, read-only)

        With uniform thresholds the comparison runs once per *resource* and
        one bool gather maps it to users — the same float comparison, so
        ties match the per-user path bit for bit, without an n-long float
        temporary.
        """
        return self.cached("satisfied_mask", lambda s: _frozen(s._satisfied()))

    def _satisfied(self) -> np.ndarray:
        inst = self.instance
        if inst.uniform_thresholds:
            ok = self.resource_latencies() <= inst.thresholds[0]
            return np.take(ok, self.assignment)
        return self.user_latencies() <= inst.thresholds

    @property
    def n_satisfied(self) -> int:
        return int(np.count_nonzero(self.satisfied_mask()))

    @property
    def n_unsatisfied(self) -> int:
        return self.instance.n_users - self.n_satisfied

    def is_satisfying(self) -> bool:
        """True iff every user's QoS requirement is met."""
        return bool(np.all(self.satisfied_mask()))

    def would_satisfy(self, users: np.ndarray, targets: np.ndarray) -> np.ndarray:
        """Would each ``users[i]`` be satisfied after migrating to ``targets[i]``?

        The check is *conservative*: the hypothetical load of the target is
        its current load plus the migrating user's own weight, i.e. the user
        assumes it is the only arrival.  Concurrent arrivals can still
        overshoot — exactly the phenomenon migration-probability rules damp.
        Users probing their *own* current resource see its load unchanged.

        The probe math is elementwise, so it streams over user-axis chunks
        (:func:`repro.core.memory.iter_chunks`): scratch stays bounded by
        the chunk span instead of six full-width temporaries at n = 10^6+.
        Chunking elementwise work is bit-exact by construction.
        """
        users = np.asarray(users, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        inst = self.instance
        if users.shape != targets.shape:
            raise ValueError("users and targets must have the same shape")
        out = np.empty(users.shape, dtype=bool)
        u_flat, t_flat, o_flat = users.ravel(), targets.ravel(), out.ravel()
        for s, e in iter_chunks(u_flat.size):
            u = u_flat[s:e]
            t = t_flat[s:e]
            staying = self.assignment[u] == t
            hypothetical = self.loads[t] + np.where(staying, 0.0, inst.weights[u])
            lat = inst.latencies.evaluate_at(t, hypothetical)
            np.less_equal(lat, inst.thresholds[u], out=o_flat[s:e])
        return out

    # -- mutation ----------------------------------------------------------------

    def apply_migrations(self, users: np.ndarray, targets: np.ndarray) -> int:
        """Move ``users[i]`` to ``targets[i]`` simultaneously, in place.

        Self-moves (target equals current resource) are ignored.  Returns
        the number of users that actually changed resource.  Loads are
        updated incrementally with two weighted bincounts — O(#movers + m);
        the "each user moves at most once" check adds one n-byte seen-mask.

        Every pair is validated — user and target in range, target
        accessible under the instance's access topology — with the same
        ``ValueError`` the constructor raises, so a buggy protocol cannot
        silently corrupt the state between ``check_invariants`` calls.
        """
        users = np.asarray(users, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        if users.shape != targets.shape:
            raise ValueError("users and targets must have matching shapes")
        if users.size == 0:
            return 0
        if users.min() < 0 or users.max() >= self.instance.n_users:
            raise ValueError("user index out of range")
        if targets.min() < 0 or targets.max() >= self.instance.n_resources:
            raise ValueError("target references an out-of-range resource")
        # After the range checks (a negative index must not wrap) and
        # before any mutation (the call stays atomic): an n-byte seen-mask
        # counts distinct movers in any order, with no sort or hash.
        seen = np.zeros(self.instance.n_users, dtype=bool)
        seen[users] = True
        if np.count_nonzero(seen) != users.size:
            raise ValueError("a user may migrate at most once per application")
        if self.instance.access is not None:
            ok = self.instance.access.contains(users, targets)
            if not np.all(ok):
                bad = int(np.nonzero(~ok)[0][0])
                raise ValueError(
                    f"user {int(users[bad])} assigned to inaccessible resource "
                    f"{int(targets[bad])}"
                )
        moving = self.assignment[users] != targets
        users = users[moving]
        targets = targets[moving]
        if users.size == 0:
            return 0
        w = self.instance.weights[users]
        m = self.instance.n_resources
        self.loads -= np.bincount(self.assignment[users], weights=w, minlength=m)
        self.loads += np.bincount(targets, weights=w, minlength=m)
        self.assignment[users] = targets
        self._version += 1
        return int(users.size)

    def move_user(self, user: int, target: int) -> bool:
        """Move a single user (sequential protocols). Returns True if moved.

        Validates like :meth:`apply_migrations`: ``user`` and ``target``
        must be in range (negative indices are rejected, not wrapped) and
        ``target`` must be accessible to ``user``.
        """
        user = int(user)
        target = int(target)
        if not (0 <= user < self.instance.n_users):
            raise ValueError("user out of range")
        if not (0 <= target < self.instance.n_resources):
            raise ValueError("target out of range")
        if self.instance.access is not None and not self.instance.access.contains_one(
            user, target
        ):
            raise ValueError(
                f"user {user} assigned to inaccessible resource {target}"
            )
        source = int(self.assignment[user])
        if source == target:
            return False
        w = float(self.instance.weights[user])
        self.loads[source] -= w
        self.loads[target] += w
        self.assignment[user] = target
        self._version += 1
        return True

    # -- integrity ----------------------------------------------------------------

    def check_invariants(self) -> None:
        """Verify loads match the assignment exactly; raise on corruption.

        Cheap enough to call in tests and at trace checkpoints, not called
        in the hot loop.
        """
        expected = loads_of(self.instance, self.assignment)
        if not np.allclose(self.loads, expected, rtol=0, atol=1e-9):
            raise AssertionError("state corruption: loads do not match assignment")
        if self.instance.access is not None:
            ok = self.instance.access.contains(
                np.arange(self.instance.n_users), self.assignment
            )
            if not np.all(ok):
                raise AssertionError("state corruption: inaccessible assignment")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.instance is other.instance and np.array_equal(
            self.assignment, other.assignment
        )

    def __hash__(self):  # states are mutable
        raise TypeError("State is mutable and unhashable; hash assignment.tobytes()")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"State(n={self.instance.n_users}, m={self.instance.n_resources}, "
            f"satisfied={self.n_satisfied}/{self.instance.n_users})"
        )
