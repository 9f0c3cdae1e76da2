"""Synthetic instance generators — the experiment suite's workloads.

The paper is theory-only, so its "workloads" are the parameter regimes of
the theorems: number of users ``n``, number of resources ``m``, slack, and
the shape of the threshold/latency heterogeneity.  Each generator maps
those knobs to a concrete :class:`~repro.core.instance.Instance`, and the
feasibility module audits what was generated (tests assert e.g. that
``uniform_slack`` instances are feasible and generous).

All generators are deterministic in ``(parameters, seed)``.
"""

from __future__ import annotations

import math

import numpy as np

from ..core.feasibility import greedy_assignment
from ..core.instance import AccessMap, Instance
from ..core.latency import (
    IdentityLatency,
    LatencyProfile,
    MM1Latency,
    PolynomialLatency,
)
from ..sim.rng import make_rng

__all__ = [
    "uniform_slack",
    "tight_uniform",
    "two_class",
    "zipf_thresholds",
    "overloaded",
    "related_speeds",
    "mm1_farm",
    "polynomial_farm",
    "weighted_uniform",
    "random_access",
    "sparse_access",
]


def uniform_slack(n: int, m: int, slack: float = 0.25) -> Instance:
    """Identical machines, one shared threshold with multiplicative slack.

    The threshold is ``q = ceil(n / (m * (1 - slack)))``: at ``slack = 0``
    the tightest uniform feasible instance (``q = ceil(n/m)``), growing
    room as ``slack`` rises.  Uniform-threshold instances are always
    *generous* (``m*q >= n``), so every stable state is satisfying and the
    convergence-time experiments (F1–F3) measure a well-defined quantity.
    """
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if not (0.0 <= slack < 1.0):
        raise ValueError("slack must be in [0, 1)")
    q = math.ceil(n / (m * (1.0 - slack)))
    thresholds = np.full(n, float(q))
    return Instance.identical_machines(
        thresholds, m, name=f"uniform(n={n},m={m},slack={slack:g})"
    )


def tight_uniform(n: int, m: int) -> Instance:
    """The zero-slack uniform instance: ``q = n/m`` exactly (``m`` | ``n``).

    Every satisfying state is perfectly balanced — the hard regime of the
    slack sweep (F2).
    """
    if n % m != 0:
        raise ValueError("tight_uniform requires m to divide n")
    q = n // m
    thresholds = np.full(n, float(q))
    return Instance.identical_machines(
        thresholds, m, name=f"tight(n={n},m={m})"
    )


def two_class(
    n_demanding: int,
    q_demanding: float,
    n_tolerant: int,
    q_tolerant: float,
    m: int,
    *,
    require_feasible: bool = True,
    rng: int | np.random.Generator | None = 0,
) -> Instance:
    """Two user classes on identical machines, shuffled user order.

    Demanding users (small ``q``) need quiet resources; tolerant users
    (large ``q``) can pack tightly.  Satisfying states are strongly
    *unbalanced*, which is what distinguishes QoS-aware protocols from
    load balancers (experiments F4, T4).
    """
    if q_demanding >= q_tolerant:
        raise ValueError("demanding class must have the smaller threshold")
    thresholds = np.concatenate(
        [
            np.full(n_demanding, float(q_demanding)),
            np.full(n_tolerant, float(q_tolerant)),
        ]
    )
    generator = make_rng(rng)
    generator.shuffle(thresholds)
    inst = Instance.identical_machines(
        thresholds,
        m,
        name=(
            f"two-class(nd={n_demanding},qd={q_demanding:g},"
            f"nt={n_tolerant},qt={q_tolerant:g},m={m})"
        ),
    )
    if require_feasible and not greedy_assignment(inst).feasible:
        raise ValueError("two_class parameters produce an infeasible instance")
    return inst


def zipf_thresholds(
    n: int,
    m: int,
    *,
    alpha: float = 1.5,
    q_min: float = 1.0,
    q_max: float | None = None,
    ensure: str = "feasible",
    rng: int | np.random.Generator | None = 0,
) -> Instance:
    """Power-law threshold profile on identical machines.

    Thresholds are ``q_min * X`` with ``X`` Pareto(``alpha``)-distributed,
    clipped to ``[q_min, q_max]`` (default ``q_max = n``): a few very
    tolerant users, a heavy tail of demanding ones — the profile under
    which stable-but-unsatisfying traps (see :mod:`repro.core.stability`)
    actually occur.

    ``ensure`` controls post-processing:

    - ``"feasible"`` (default): scale all thresholds up by the smallest
      power of 2 that makes the greedy packing succeed (shape-preserving).
    - ``"raw"``: return as drawn (may be infeasible).
    """
    if ensure not in ("feasible", "raw"):
        raise ValueError("ensure must be 'feasible' or 'raw'")
    generator = make_rng(rng)
    q_max = float(n) if q_max is None else float(q_max)
    draws = q_min * (1.0 + generator.pareto(alpha, size=n))
    thresholds = np.clip(draws, q_min, q_max)
    # Integer-ish thresholds keep the combinatorics crisp.
    thresholds = np.ceil(thresholds)
    inst = Instance.identical_machines(
        thresholds, m, name=f"zipf(n={n},m={m},alpha={alpha:g})"
    )
    if ensure == "feasible":
        scale = 1.0
        while not greedy_assignment(inst).feasible:
            scale *= 2.0
            if scale > 2.0 ** 20:
                raise RuntimeError("could not scale instance to feasibility")
            inst = Instance.identical_machines(
                np.ceil(thresholds * scale),
                m,
                name=f"zipf(n={n},m={m},alpha={alpha:g},scale={scale:g})",
            )
    return inst


def overloaded(n: int, m: int, q: float, *, name: str | None = None) -> Instance:
    """Deliberately infeasible uniform instance: ``n > m * floor(q)``.

    Used by T2 to measure how close protocols get to OPT_sat when full
    satisfaction is impossible.
    """
    if n <= m * math.floor(q):
        raise ValueError("not overloaded: n <= m * floor(q)")
    thresholds = np.full(n, float(q))
    return Instance.identical_machines(
        thresholds, m, name=name or f"overloaded(n={n},m={m},q={q:g})"
    )


def related_speeds(
    n: int,
    m: int,
    *,
    slack: float = 0.25,
    speed_ratio: float = 4.0,
    rng: int | np.random.Generator | None = 0,
) -> Instance:
    """Uniformly related machines with log-uniform speeds in
    ``[1, speed_ratio]`` and one shared threshold sized to the total
    capacity with the given multiplicative slack.

    The profile is pointwise ordered, so greedy feasibility stays exact.
    """
    generator = make_rng(rng)
    speeds = np.exp(
        generator.uniform(0.0, math.log(max(speed_ratio, 1.0 + 1e-12)), size=m)
    )
    # Choose q so that sum_r floor(q * s_r) >= n with multiplicative slack:
    # start from the fluid bound and grow until satisfied.
    q = n / (speeds.sum() * (1.0 - slack))
    while np.floor(q * speeds).sum() < n:
        q *= 1.05
    thresholds = np.full(n, float(q))
    return Instance.related_machines(
        thresholds,
        speeds,
        name=f"related(n={n},m={m},ratio={speed_ratio:g},slack={slack:g})",
    )


def mm1_farm(
    n: int,
    m: int,
    *,
    utilisation: float = 0.7,
    rng: int | np.random.Generator | None = 0,
) -> Instance:
    """M/M/1-style server farm: ``ell_r(x) = 1/(mu_r - x)``.

    Service rates are drawn so that the farm runs at the target
    ``utilisation`` (``n = utilisation * sum(mu_r - 1)`` roughly), and the
    shared threshold is the delay at utilisation midway between the target
    and saturation — sharply convex latencies where a single extra user
    flips a resource from fine to useless.
    """
    if not (0.0 < utilisation < 1.0):
        raise ValueError("utilisation must be in (0, 1)")
    generator = make_rng(rng)
    base = n / (m * utilisation) + 1.0
    mus = base * generator.uniform(0.8, 1.2, size=m)
    # Threshold: delay of a resource loaded at (utilisation + 1)/2 of mu.
    mid = (utilisation + 1.0) / 2.0
    q = float(1.0 / (base - mid * base))
    q = abs(q)
    thresholds = np.full(n, q)
    inst = Instance(
        thresholds=thresholds,
        latencies=LatencyProfile([MM1Latency(float(mu)) for mu in mus]),
        name=f"mm1(n={n},m={m},rho={utilisation:g})",
    )
    # Guarantee feasibility by raising q until the capacity check passes
    # (the MM1 capacity function is exact).
    while np.maximum(inst.capacity_for(float(inst.thresholds[0])), 0).sum() < n:
        thresholds = thresholds * 1.25
        inst = Instance(
            thresholds=thresholds,
            latencies=inst.latencies,
            name=inst.name,
        )
    return inst


def polynomial_farm(
    n: int,
    m: int,
    *,
    degree: int = 2,
    slack: float = 0.25,
) -> Instance:
    """Identical machines with convex polynomial latency ``x**degree``."""
    per = n / m
    q = (per / (1.0 - slack)) ** degree
    thresholds = np.full(n, float(q))
    inst = Instance(
        thresholds=thresholds,
        latencies=LatencyProfile([PolynomialLatency(degree=degree)] * m),
        name=f"poly(n={n},m={m},d={degree},slack={slack:g})",
    )
    while np.maximum(inst.capacity_for(float(q)), 0).sum() < n:
        q *= 1.25
        inst = Instance(
            thresholds=np.full(n, float(q)),
            latencies=inst.latencies,
            name=inst.name,
        )
    return inst


def weighted_uniform(
    n: int,
    m: int,
    *,
    slack: float = 0.4,
    weight_ratio: float = 4.0,
    rng: int | np.random.Generator | None = 0,
) -> Instance:
    """Weighted users (log-uniform weights) on identical machines.

    The threshold is sized against total weight with the given slack.
    Exact feasibility theory does not cover weights; the generator
    over-provisions instead (tests check a satisfying state exists by
    first-fit-decreasing construction).
    """
    generator = make_rng(rng)
    weights = np.exp(
        generator.uniform(0.0, math.log(max(weight_ratio, 1.0 + 1e-12)), size=n)
    )
    q = float(weights.sum() / (m * (1.0 - slack)))
    thresholds = np.full(n, q)
    return Instance(
        thresholds=thresholds,
        latencies=LatencyProfile([IdentityLatency()] * m),
        weights=weights,
        name=f"weighted(n={n},m={m},ratio={weight_ratio:g},slack={slack:g})",
    )


def random_access(
    n: int,
    m: int,
    *,
    degree: int = 4,
    slack: float = 0.5,
    rng: int | np.random.Generator | None = 0,
) -> Instance:
    """Uniform-threshold instance where each user may only use ``degree``
    random resources (bipartite accessibility).

    Feasibility under access maps is a matching problem the exact theory
    does not cover; the generator over-provisions (high slack) so that
    satisfying states exist with overwhelming probability, and tests treat
    satisfiability as empirical.
    """
    if degree < 1 or degree > m:
        raise ValueError("degree must be in [1, m]")
    generator = make_rng(rng)
    allowed = [
        generator.choice(m, size=degree, replace=False).tolist() for _ in range(n)
    ]
    q = math.ceil(n / (m * (1.0 - slack)))
    return Instance(
        thresholds=np.full(n, float(q)),
        latencies=LatencyProfile([IdentityLatency()] * m),
        access=AccessMap(allowed, m),
        name=f"random-access(n={n},m={m},d={degree},slack={slack:g})",
    )


def sparse_access(
    n: int,
    m: int,
    *,
    degree: int = 4,
    slack: float = 0.5,
    rng: int | np.random.Generator | None = 0,
) -> Instance:
    """CSR-native sibling of :func:`random_access` for huge ``n``.

    Same instance family — uniform threshold, each user restricted to
    ``degree`` uniformly random distinct resources — but built without any
    per-user Python loop: the topology is drawn as an ``(n, degree)``
    block, rows with duplicate picks are re-drawn (vectorized rejection;
    for ``degree << m`` a row is rejected with probability
    ``O(degree^2 / m)``, so the expected number of passes is ~1), and the
    flat layout goes straight into :meth:`AccessMap.from_csr`.  At
    n = 10^6+ the list-of-lists path dominates generation time and memory;
    this one is a handful of array ops.

    Note the draws differ from ``random_access`` (block ``integers`` vs
    per-user ``choice``), so the two generators produce *different*
    instances for the same seed — this is a new family member, not a
    drop-in replacement, which keeps ``random_access`` instances (and the
    tests pinned to them) byte-stable.
    """
    if degree < 1 or degree > m:
        raise ValueError("degree must be in [1, m]")
    generator = make_rng(rng)
    # Sorted in place and compared column against column, so the only
    # full-width int64 array is the draw itself.
    picks = generator.integers(0, m, size=(n, degree))
    picks.sort(axis=1)
    if degree > 1:
        bad = np.flatnonzero((picks[:, 1:] == picks[:, :-1]).any(axis=1))
        while bad.size:
            redraw = np.sort(generator.integers(0, m, size=(bad.size, degree)), axis=1)
            picks[bad] = redraw
            bad = bad[np.flatnonzero((redraw[:, 1:] == redraw[:, :-1]).any(axis=1))]
    offsets = np.arange(n + 1, dtype=np.int64) * degree
    access = AccessMap.from_csr(picks.reshape(-1), offsets, m)
    q = math.ceil(n / (m * (1.0 - slack)))
    return Instance(
        thresholds=np.full(n, float(q)),
        latencies=LatencyProfile([IdentityLatency()] * m),
        access=access,
        name=f"sparse-access(n={n},m={m},d={degree},slack={slack:g})",
    )
