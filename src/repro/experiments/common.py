"""Shared machinery for the experiment suite.

Every experiment (F1–F9, T1–T4; see ``EXPERIMENTS.md``) is a function
returning an :class:`ExperimentResult` — headers + rows (the reproduced
figure series or table) plus free-form findings.  Benchmarks call these
functions at CI scale and print the table; the CLI runs them at full scale
and writes traces.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from ..analysis.stats import summarize
from ..analysis.tables import render_table
from ..obs import HUB as _OBS
from ..runs.store import CellSpec, active_store, render_only_active
from ..sim.engine import RunResult
from ..sim.parallel import RunSpec, replicate

__all__ = [
    "ExperimentResult",
    "cell",
    "cell_spec",
    "collecting_cells",
    "enumerate_cells",
    "convergence_stats",
]


@dataclass
class ExperimentResult:
    """One reproduced table/figure."""

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    findings: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        text = render_table(self.headers, self.rows, title=f"{self.experiment_id}: {self.title}")
        if self.findings:
            text += "\n" + "\n".join(f"  * {f}" for f in self.findings)
        return text


def cell_spec(
    *,
    generator: str,
    generator_kwargs: dict | None = None,
    protocol: str = "qos-sampling",
    protocol_kwargs: dict | None = None,
    schedule: str = "synchronous",
    schedule_kwargs: dict | None = None,
    max_rounds: int = 100_000,
    initial: str = "pile",
    n_reps: int = 10,
    base_seed: int = 0,
    label: str = "",
    seed_key: str | None = None,
) -> CellSpec:
    """The :class:`~repro.runs.store.CellSpec` of one experiment cell (a
    spec replicated ``n_reps`` times); :func:`cell` takes these arguments.

    ``initial`` defaults to the adversarial pile start: convergence *time*
    is only interesting from far away (random initial states of slack
    instances are often already nearly satisfying).

    ``seed_key`` opts into **common random numbers**: paired designs that
    compare protocol arms on the *same* workload should pass one key per
    workload so every arm replays the same seed stream and the contrast is
    protocol-only (see :func:`repro.sim.parallel.replicate`).  Leave it
    ``None`` for unpaired sweeps — each configuration then draws its own
    independent stream.
    """
    spec = RunSpec(
        generator=generator,
        generator_kwargs=generator_kwargs or {},
        protocol=protocol,
        protocol_kwargs=protocol_kwargs or {},
        schedule=schedule,
        schedule_kwargs=schedule_kwargs or {},
        max_rounds=max_rounds,
        initial=initial,
        label=label,
    )
    return CellSpec(spec=spec, n_reps=n_reps, base_seed=base_seed, seed_key=seed_key)


# Pool size for cell()'s replicate calls, set by ExperimentDef.run: an
# execution setting like the active store, never part of a cell's identity.
_POOL_WORKERS: int | None = 0


@contextmanager
def _cell_pool(workers: int | None) -> Iterator[None]:
    """Run every :func:`cell` inside on ``replicate(..., workers=workers)``."""
    global _POOL_WORKERS
    previous = _POOL_WORKERS
    _POOL_WORKERS = workers
    try:
        yield
    finally:
        _POOL_WORKERS = previous


# Dry-run collector: while set, cell() records CellSpecs instead of
# simulating, so runners double as their own cell enumerations.
_CELL_COLLECTOR: list[CellSpec] | None = None


@contextmanager
def collecting_cells() -> Iterator[list[CellSpec]]:
    """Dry-run mode: :func:`cell` collects specs and returns placeholders.

    Placeholder results are structurally valid (status ``"satisfying"``,
    ``rounds = rep_index + 1``) so the runner's table/findings arithmetic
    completes; the rendered numbers are meaningless and discarded — only
    the collected :class:`CellSpec` list matters.
    """
    global _CELL_COLLECTOR
    previous = _CELL_COLLECTOR
    _CELL_COLLECTOR = collected = []
    try:
        yield collected
    finally:
        _CELL_COLLECTOR = previous


def enumerate_cells(fn, **params: Any) -> list[CellSpec]:
    """The cell decomposition of a cell-based runner: the :func:`cell`
    calls of a dry run of ``fn(**params)`` (nothing simulates).  The
    default :attr:`~repro.experiments.ExperimentDef.cells`."""
    with collecting_cells() as cells:
        fn(**params)
    return list(cells)


def _placeholder_result(spec: RunSpec, index: int) -> RunResult:
    return RunResult(
        status="satisfying",
        rounds=index + 1,
        total_moves=0,
        total_attempts=0,
        total_messages=0,
        n_satisfied=1,
        n_users=1,
        n_resources=1,
        satisfying_round=index + 1,
        last_event_round=None,
        protocol={"name": spec.protocol},
        schedule={"name": spec.schedule},
        seed=None,
    )


def cell(**kwargs: Any) -> list[RunResult]:
    """Run one experiment cell: ``kwargs`` are :func:`cell_spec`'s.

    The replications run on the pool size of the enclosing
    :meth:`~repro.experiments.ExperimentDef.run` (see
    :func:`repro.sim.parallel.replicate`); stored ``runs-cell/v1``
    payloads are engine-agnostic and cache keys ignore it.

    Two orthogonal contexts intercept the call: inside
    :func:`collecting_cells` the cell is recorded, not run; inside
    :func:`repro.runs.store.use_store` the content-addressed store is
    consulted first and written back on a miss, making repeated renders
    incremental over prior sweeps.
    """
    cs = cell_spec(**kwargs)
    spec, n_reps = cs.spec, cs.n_reps
    if _CELL_COLLECTOR is not None:
        _CELL_COLLECTOR.append(cs)
        return [_placeholder_result(spec, i) for i in range(n_reps)]

    store = active_store()
    if store is not None:
        hit = store.load_results(cs)
        if hit is not None:
            if _OBS.active:
                _OBS.count("experiments.cells_cached")
                _OBS.event(
                    "cell",
                    {
                        "label": spec.label,
                        "protocol": spec.protocol,
                        "n_reps": n_reps,
                        "cached": True,
                    },
                )
            return hit
        if render_only_active():
            from ..runs.store import MissingCellError, cell_key

            raise MissingCellError(
                f"store has no results for cell {spec.label or spec.protocol!r} "
                f"(key {cell_key(cs)}); render-only mode refuses to recompute — "
                f"sweep this experiment first"
            )

    started = time.perf_counter()
    with _OBS.span("experiments.cell"):
        results = replicate(
            spec, n_reps, base_seed=cs.base_seed, workers=_POOL_WORKERS, seed_key=cs.seed_key
        )
    elapsed = time.perf_counter() - started
    if store is not None:
        store.store_results(cs, results, duration_s=elapsed)
    if _OBS.active:
        _OBS.count("experiments.cells")
        _OBS.event(
            "cell",
            {
                "label": spec.label,
                "generator": spec.generator,
                "protocol": spec.protocol,
                "n_reps": n_reps,
                "cached": False,
                "seconds": elapsed,
            },
        )
    return results


def convergence_stats(results: Sequence[RunResult]) -> dict[str, Any]:
    """Aggregate one cell: convergence fraction and time/cost summaries.

    Round statistics are computed over *satisfying* runs only (the
    convergence time of a run that never satisfied is undefined); the
    ``satisfying_fraction`` column reports how many that is.  Cost columns
    (moves, messages) aggregate over all runs.
    """
    statuses = [r.status for r in results]
    n = len(results)
    sat_rounds = np.asarray(
        [r.rounds for r in results if r.status == "satisfying"], dtype=np.float64
    )
    out: dict[str, Any] = {
        "n_reps": n,
        "satisfying_fraction": statuses.count("satisfying") / n,
        "quiescent_fraction": statuses.count("quiescent") / n,
        "budget_fraction": statuses.count("max_rounds") / n,
        "satisfied_fraction_mean": float(
            np.mean([r.satisfied_fraction for r in results])
        ),
        "moves_mean": float(np.mean([r.total_moves for r in results])),
        "messages_mean": float(np.mean([r.total_messages for r in results])),
    }
    if sat_rounds.size:
        s = summarize(sat_rounds)
        out.update(
            rounds_median=s.median,
            rounds_ci_low=s.ci_low,
            rounds_ci_high=s.ci_high,
            rounds_mean=s.mean,
        )
    else:
        out.update(
            rounds_median=None, rounds_ci_low=None, rounds_ci_high=None, rounds_mean=None
        )
    return out
