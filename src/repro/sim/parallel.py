"""Replicated runs, batched where a kernel exists and sharded over a pool.

Convergence times of randomized dynamics are distributions; every figure
row aggregates dozens of replications.  This module runs them:

- :class:`RunSpec` — a *plain-data* description of one configuration
  (generator name + kwargs, protocol name + kwargs, schedule, engine
  options).  Being plain data it pickles cleanly, lands in traces
  verbatim, and is the unit the CLI and the benches share.
- :func:`run_spec` — execute one replication of a spec (module-level, so
  process pools can import it).
- :func:`replicate` — run ``n_reps`` replications with independent spawned
  seeds.  There is one path: the replication indices split into
  contiguous shards, each shard runs on the vectorized batched engine
  (:mod:`repro.sim.batch`) when the spec has a kernel and the cell holds
  at least two replications, and on the scalar engine otherwise; one
  shard runs in-process, several go to a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Each shard builds
  the spec's instance, protocol and schedule once (:func:`_spec_components`)
  and runs all its replications on them.  :func:`replicate_engine` names
  the engine this picks.

Per the HPC guides, parallelism is process-based (the work is pure Python
+ NumPy and releases no GIL).  The batched engine sidesteps the
per-replication Python round loop entirely by stacking a shard's
replications into ``(R, n)`` arrays.  Every replication's seed derives
from its *global* index (:func:`rep_seed`), so the per-rep results are
bit-identical whichever engine ran them and however the set was sharded:
the engine changes how long a cell takes, never what it computes.  See
:mod:`repro.sim.batch` for the RNG stream contract and kernel coverage.
"""

from __future__ import annotations

import inspect
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any

from ..obs import HUB as _OBS
from .engine import RunResult, run
from .rng import seed_from_key

__all__ = [
    "RunSpec",
    "run_spec",
    "replicate",
    "replicate_engine",
    "rep_seed",
    "spec_seed_key",
]


@dataclass(frozen=True)
class RunSpec:
    """Plain-data description of one simulation configuration.

    Every replication of a spec simulates the same instance, so a cell's
    spread is over protocol randomness alone.
    """

    generator: str
    generator_kwargs: dict[str, Any] = field(default_factory=dict)
    protocol: str = "qos-sampling"
    protocol_kwargs: dict[str, Any] = field(default_factory=dict)
    schedule: str = "synchronous"
    schedule_kwargs: dict[str, Any] = field(default_factory=dict)
    max_rounds: int = 100_000
    initial: str = "random"
    label: str = ""

    def describe(self) -> dict:
        return {
            "generator": self.generator,
            "generator_kwargs": dict(self.generator_kwargs),
            "protocol": self.protocol,
            "protocol_kwargs": dict(self.protocol_kwargs),
            "schedule": self.schedule,
            "schedule_kwargs": dict(self.schedule_kwargs),
            "max_rounds": self.max_rounds,
            "initial": self.initial,
            # Frozen key material: spec_seed_key, cell keys, the goldens and
            # existing stores all hash this dict, so the retired option's
            # one value stays in it.
            "instance_seed_key": "fixed",
            "label": self.label,
        }


def _spec_components(spec: RunSpec):
    """Build the (instance, protocol, schedule) triple a spec describes.

    The one place a spec becomes its components: every scalar shard and
    every :func:`repro.sim.batch.replicate_batched` call builds once and
    runs all its replications on the result (``run()`` resets the protocol
    and the schedule at the start of each).  The instance does not depend
    on any replication seed.
    """
    # Imported here so worker processes initialise lazily and the module
    # import graph stays cycle-free (registry imports workloads/protocols).
    from ..registry import GENERATORS, build_instance, build_protocol, build_schedule

    gen_kwargs = dict(spec.generator_kwargs)
    # Generators that accept an rng get a derived, stable one.
    accepts_rng = "rng" in inspect.signature(GENERATORS[spec.generator]).parameters
    if accepts_rng and "rng" not in gen_kwargs:
        gen_kwargs["rng"] = seed_from_key(
            0, "instance", spec.generator, str(sorted(spec.generator_kwargs.items()))
        )
    instance = build_instance(spec.generator, **gen_kwargs)

    protocol_kwargs = dict(spec.protocol_kwargs)
    if spec.protocol == "neighborhood":
        # The resource graph spans the instance's resources.
        protocol_kwargs.setdefault("m", instance.n_resources)
    protocol = build_protocol(spec.protocol, **protocol_kwargs)
    schedule = build_schedule(spec.schedule, **spec.schedule_kwargs)
    return instance, protocol, schedule


def _run_built(spec: RunSpec, components, seed: int) -> RunResult:
    """One replication of ``spec`` on its built components."""
    instance, protocol, schedule = components
    return run(
        instance,
        protocol,
        seed=seed_from_key(seed, "run"),
        schedule=schedule,
        max_rounds=spec.max_rounds,
        initial=spec.initial,
    )


def run_spec(spec: RunSpec, seed: int) -> RunResult:
    """Execute one replication of ``spec`` with the given root seed.

    Builds the components afresh on every call: the scalar reference the
    tests and the bench's serial legs compare against.
    """
    return _run_built(spec, _spec_components(spec), seed)


def rep_seed(base_seed: int, key: str, index: int) -> int:
    """Root seed of replication ``index`` of the cell seeded by ``key``.

    The one derivation both engines use: :func:`run_spec` and
    :func:`~repro.sim.batch.replicate_batched` receive the same integer for
    the same global index, which is the whole bit-identity argument.
    """
    return seed_from_key(base_seed, key, str(index))


def _pool_size(workers: int | None) -> int:
    """Process count ``workers`` asks for (``None`` = ``min(cpus - 1, 8)``)."""
    if workers is None:
        return max(1, min((os.cpu_count() or 1) - 1, 8))
    return int(workers)


def replicate_engine(
    spec: RunSpec, n_reps: int, workers: int | None = 0
) -> tuple[str, str | None]:
    """The engine :func:`replicate` runs, and why it is scalar if it is.

    Returns ``(engine, fallback)``: ``"batched"`` when the spec has a
    batched kernel and there are at least two replications, ``"hybrid"``
    when such a batch is additionally sharded over a pool of two or more
    processes, otherwise ``"serial"`` with ``fallback`` saying why (the
    :func:`~repro.sim.batch.batch_support` reason, or a single
    replication).  ``fallback`` is ``None`` whenever a kernel runs.
    """
    if n_reps < 2:
        return "serial", "single replication"
    from .batch import batch_support

    reason = batch_support(spec)
    if reason is not None:
        return "serial", reason
    return ("hybrid" if _pool_size(workers) >= 2 else "batched"), None


def _run_shard(
    spec: RunSpec, indices: range, base_seed: int, seed_key: str, batched: bool
) -> list[RunResult]:
    """Run the given *global* replication indices of one cell.

    Module-level so process pools can pickle it.  Seeds derive from the
    global indices (not the shard-local positions), so resharding changes
    who computes a replication, never what it computes.  A shard builds
    the spec's components once, whichever engine runs it.
    """
    if batched:
        from .batch import replicate_batched

        return replicate_batched(
            spec, len(indices), base_seed=base_seed, seed_key=seed_key, rep_indices=indices
        )
    components = _spec_components(spec)
    return [_run_built(spec, components, rep_seed(base_seed, seed_key, i)) for i in indices]


def _shard_indices(n_reps: int, n_shards: int) -> list[range]:
    """Split ``range(n_reps)`` into ``n_shards`` contiguous, near-even shards."""
    base, extra = divmod(n_reps, n_shards)
    shards = []
    start = 0
    for j in range(n_shards):
        size = base + (1 if j < extra else 0)
        shards.append(range(start, start + size))
        start += size
    return shards


def spec_seed_key(spec: RunSpec) -> str:
    """Stable string identifying the *full* configuration of a spec.

    Replication seeds are derived from this key, so two cells differing in
    **any** field — generator kwargs included — get statistically
    independent seed streams.  (Seeding from ``label or protocol`` alone,
    as earlier versions did, silently reused one seed stream across every
    unlabeled cell of a sweep: replications were correlated across cells
    and across experiments.)
    """
    return json.dumps(spec.describe(), sort_keys=True, default=str)


def replicate(
    spec: RunSpec,
    n_reps: int,
    *,
    base_seed: int = 0,
    workers: int | None = 0,
    seed_key: str | None = None,
) -> list[RunResult]:
    """Run ``n_reps`` independent replications of ``spec``.

    The engine follows from the spec and the pool (see
    :func:`replicate_engine`): specs with a batched kernel run their
    replications lockstep, everything else — and a lone replication —
    runs the scalar round loop.  ``workers=0`` (default) means no pool —
    the right choice inside tests and small benches; ``workers=None``
    picks ``min(cpus - 1, 8)``; any other value sets the pool size.  With
    a pool of two or more, the replications split into contiguous shards:
    one per process when batched, four per process when scalar (so a
    slow replication does not idle the rest of the pool).

    Seeds are derived from ``base_seed`` plus :func:`spec_seed_key`, so
    every distinct configuration gets its own stream.  Pass an explicit
    ``seed_key`` to opt in to **common random numbers**: cells sharing the
    same ``seed_key`` and ``base_seed`` see identical seed streams, the
    right design for paired protocol comparisons on one workload.  Seed
    derivation *and* stream construction are engine-independent (both
    engines run ``default_rng`` on the same :func:`rep_seed` integers), so
    per-rep results are bit-identical whichever engine ran them — which is
    why the engine is not part of a cell's identity in the run store.
    """
    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    engine, _ = replicate_engine(spec, n_reps, workers)
    batched = engine != "serial"
    pool = _pool_size(workers)
    n_shards = 1 if pool < 2 else min(n_reps, pool if batched else 4 * pool)
    shards = _shard_indices(n_reps, n_shards)
    key = seed_key if seed_key is not None else spec_seed_key(spec)
    # Telemetry: worker processes inherit a *disabled* hub, so a sharded
    # call records the replicate-level span and counters only.
    with _OBS.span("parallel.replicate"):
        if n_shards == 1:
            results = _run_shard(spec, shards[0], base_seed, key, batched)
        else:
            with ProcessPoolExecutor(max_workers=min(pool, n_shards)) as executor:
                parts = executor.map(
                    _run_shard,
                    [spec] * n_shards,
                    shards,
                    [base_seed] * n_shards,
                    [key] * n_shards,
                    [batched] * n_shards,
                )
                # Contiguous shards in submission order: concatenation
                # restores global replication order.
                results = [r for part in parts for r in part]
    if _OBS.active:
        _OBS.count("parallel.replications", n_reps)
        _OBS.event(
            "replicate",
            {
                "label": spec.label,
                "protocol": spec.protocol,
                "generator": spec.generator,
                "n_reps": n_reps,
                "serial": not batched and n_shards == 1,
                "backend": engine,
                "statuses": sorted({r.status for r in results}),
            },
        )
    return results
