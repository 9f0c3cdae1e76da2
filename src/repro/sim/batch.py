"""Batched replication engine: R replications lockstep in stacked arrays.

Every figure row aggregates dozens of replications of one
:class:`~repro.sim.parallel.RunSpec`, and the scalar engine's Python round
loop is the hot path.  The sampling-family dynamics are pure elementwise
draws plus bincount-style congestion updates, so they vectorize *across
replications*: this module runs ``R`` replications simultaneously as
``(R, n_users)`` / ``(R, n_resources)`` arrays — one vectorized step per
round for the whole batch — and decomposes the outcome into the same
per-rep :class:`~repro.sim.engine.RunResult` summaries the experiments
consume.  :func:`replicate_batched` builds the spec's instance, protocol
and schedule once per call, like a scalar shard of
:func:`~repro.sim.parallel.replicate`.

RNG stream contract
-------------------

Each replication owns an independent generator stream (integer seeds go
through ``numpy.random.default_rng``, exactly like the scalar path).  The
round math is not copied here: every round calls the protocol's kernel in
:mod:`repro.core.protocols.kernels` — the same code ``Protocol.step``
runs on a one-row view — over the live rows, and the kernel makes each
row's draws in a lone run's order and sizes (the alpha activation mask
first, drawn here like :class:`~repro.sim.schedule.AlphaSchedule` draws
it, then the kernel's own target/probe and commit draws).  So the scalar
engine fed the *same* stream reproduces a batched replication **bit for
bit** — and because :func:`replicate_batched` derives its per-rep integer
seeds with the scalar path's :func:`~repro.sim.parallel.rep_seed`, a cell
has **bit-identical** per-rep results on either engine.  The frozen
kernel goldens and the differential tests pin both.

Mover groups
------------

A round does not hand all ``A * n`` live users to the kernel in one call:
after the mover mask, the live rows are split into contiguous groups
whose mover counts sum to at most :data:`MOVER_CHUNK` (a row with more
goes alone), and the kernel runs once per group.  So a round's
per-mover scratch is bounded by the group, not by ``R * n``, and stays
in the allocator's heap instead of being mapped and faulted in afresh
each round.  A group holds whole rows, so every row's draws stay whole
and in its stream's order; every group reads the round-start
assignment, loads and unsatisfied mask; the kernel's whole-batch passes
run once per round in its :class:`~repro.core.protocols.kernels.Round`;
and the committed moves are applied once, after the last group.  The
grouping therefore changes no bit, and a round with at most
``MOVER_CHUNK`` movers is one group (see :mod:`repro.core.memory` for
the choice of 2**16).

Termination is per replication, decided by the round book
(:class:`~repro.sim.book.RoundBook`) that also keeps ``run()``'s
accounting and telemetry: a replication that satisfies, goes quiescent,
or exhausts the budget leaves the live rows and **stops consuming RNG
draws** — its stream state afterwards equals a solo run's, which is what
makes mixed-length batches replayable.  The book writes each
replication's :class:`~repro.sim.engine.RunResult` and emits the same
events and ``engine.*`` counters as the scalar loop (one ``run`` event
per replication).

Kernel coverage
---------------

The lockstep loop runs the six kernel protocols —
:class:`~repro.core.protocols.QoSSamplingProtocol` (with or without
``resample_on_self``, whose redraws happen inside the kernel's per-row
draw loop), :class:`~repro.core.protocols.MultiProbeProtocol`,
:class:`~repro.core.protocols.PermitProtocol`,
:class:`~repro.core.protocols.NeighborhoodSamplingProtocol`,
:class:`~repro.core.protocols.NaiveGreedyProtocol` and
:class:`~repro.core.protocols.BlindRandomProtocol` — under the constant,
slack-proportional and adaptive-backoff rate rules (the permit grant rule
and blind jumping have no rate), with synchronous and alpha schedules,
complete or restricted access maps, and any latency profile.  Everything
else — other protocol families (and subclasses of the six), partition/
staggered schedules — transparently runs on the scalar engine instead
(see :func:`~repro.sim.parallel.replicate_engine`); :func:`batch_support`
names the reason a given spec is not batchable.  The lockstep loop
applies no scheduled events: a :class:`~repro.sim.parallel.RunSpec`
carries none, and runs with events go through
:func:`~repro.sim.engine.run`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Sequence

import numpy as np

from ..core.instance import Instance
from ..core.memory import csr_offsets, index_dtype
from ..core.protocols.kernels import Kernel, Round, kernel_kind, rate_support
from ..core.state import State
from .book import RoundBook, RunResult
from .rng import seed_from_key
from .schedule import AlphaSchedule, Schedule, SynchronousSchedule

__all__ = [
    "BatchRunResult",
    "run_batch",
    "batch_support",
    "replicate_batched",
]

#: Most movers one kernel call proposes: a round's movers go to the kernel
#: in groups of whole live rows holding at most this many (a row with more
#: goes alone), so a round's per-mover scratch stays bounded at any R * n.
MOVER_CHUNK = 1 << 16

@dataclass
class BatchRunResult:
    """Stacked outcome of ``R`` lockstep replications of one configuration.

    ``results`` are the per-rep :class:`~repro.sim.engine.RunResult`
    summaries the round book wrote, in replication order — what the
    experiment layer (and the ``runs-cell/v1`` store) consume, so
    downstream code never sees which engine produced a cell; the per-rep
    arrays below stack them, indexed by replication.
    """

    results: list[RunResult]
    final_assignment: np.ndarray = field(repr=False)

    def _stack(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.results], dtype=np.int64)

    statuses = property(lambda self: [r.status for r in self.results])
    rounds = property(lambda self: self._stack("rounds"))
    total_moves = property(lambda self: self._stack("total_moves"))
    total_attempts = property(lambda self: self._stack("total_attempts"))
    total_messages = property(lambda self: self._stack("total_messages"))
    n_satisfied = property(lambda self: self._stack("n_satisfied"))
    n_users = property(lambda self: self.results[0].n_users)
    n_resources = property(lambda self: self.results[0].n_resources)
    protocol = property(lambda self: self.results[0].protocol)
    schedule = property(lambda self: self.results[0].schedule)
    seeds = property(lambda self: [r.seed for r in self.results])

    @property
    def n_reps(self) -> int:
        return len(self.results)

    def decompose(self) -> list[RunResult]:
        """Per-rep :class:`RunResult` summaries, in replication order."""
        return list(self.results)


def _rate_schedule_support(rate, schedule: Schedule) -> str | None:
    """Why a kernel protocol with this rate (None = no rate) cannot run
    lockstep under this schedule (None = it can)."""
    if rate is not None and (reason := rate_support(rate)):
        return reason
    if type(schedule) not in (SynchronousSchedule, AlphaSchedule):
        return f"schedule {schedule.name!r} has no batched kernel"
    return None


def _kernel_support(protocol, schedule) -> str | None:
    """Why this protocol/schedule pair has no batched kernel (None = it has)."""
    if kernel_kind(protocol) is None:
        return f"protocol {getattr(protocol, 'name', protocol)!r} has no batched kernel"
    return _rate_schedule_support(getattr(protocol, "rate", None), schedule)


def batch_support(spec) -> str | None:
    """Why ``spec`` cannot run on the batched engine — ``None`` if it can.

    The decision reads the protocol's class, its rate and the schedule; no
    instance or protocol is built, so engine selection is cheap and
    deterministic across processes and resumes.
    """
    if spec.initial not in ("random", "pile"):
        return f"initial={spec.initial!r} (batched engine supports 'random'/'pile')"
    from ..registry import PROTOCOLS, build_rate, build_schedule  # lazy: registry is heavy
    from ..workloads.topology import TOPOLOGIES

    if kernel_kind(PROTOCOLS.get(spec.protocol)) is None:
        return f"protocol {spec.protocol!r} has no batched kernel"
    kwargs = dict(spec.protocol_kwargs)
    if "topology" in kwargs and kwargs["topology"] not in TOPOLOGIES:
        return f"spec does not build: unknown topology {kwargs['topology']!r}"
    try:
        schedule = build_schedule(spec.schedule, **dict(spec.schedule_kwargs))
        # no rate builds the protocol's own default, which has a kernel
        rate = build_rate(kwargs.get("rate"))
    except Exception as exc:
        return f"spec does not build: {exc!r}"
    return _rate_schedule_support(rate, schedule)


def _batch_initial(
    instance: Instance, initial: str, rngs: list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``(R, n)`` initial assignments and ``(R, m)`` loads, row by
    row from the scalar engine's own initial states."""
    R, n, m = len(rngs), instance.n_users, instance.n_resources
    assignment = np.empty((R, n), dtype=index_dtype(m))
    if initial == "random":
        states = (State.uniform_random(instance, rng) for rng in rngs)
    elif initial == "pile":
        states = repeat(State.worst_case_pile(instance), len(rngs))
    else:
        raise ValueError(
            f"unknown initial state spec for the batched engine: {initial!r}"
        )
    loads = []
    for i, state in enumerate(states):
        assignment[i] = state.assignment
        loads.append(state.loads)
    return assignment, np.stack(loads)


def _flat_assignment(assignment: np.ndarray, m: int) -> np.ndarray:
    """``row * m + r`` per (row, user): values span ``[0, R * m)``, stored
    in the narrowest width that holds that bound."""
    R = assignment.shape[0]
    asgF = assignment.astype(index_dtype(R * m))
    asgF += (np.arange(R, dtype=np.int64) * m)[:, None].astype(asgF.dtype)
    return asgF


def _mover_groups(counts: np.ndarray) -> list[tuple[int, int]]:
    """Split live rows into contiguous ``[k0, k1)`` mover groups.

    A group's mover counts sum to at most :data:`MOVER_CHUNK`, unless its
    one row with movers holds more; rows without movers ride along with
    a neighbour, so every group has movers.  A row is never split: its
    draws stay whole and in stream order.
    """
    A = counts.size
    if 0 < counts.sum() <= MOVER_CHUNK:  # the common round: one group
        return [(0, A)]
    cum = csr_offsets(counts)
    groups = []
    k0 = 0
    while k0 < A and cum[k0] < cum[A]:
        # the furthest row end within budget, and at least the end of the
        # group's first row with movers
        k1 = max(
            int(np.searchsorted(cum, cum[k0] + MOVER_CHUNK, side="right")) - 1,
            int(np.searchsorted(cum, cum[k0], side="right")),
        )
        groups.append((k0, k1))
        k0 = k1
    return groups


class _BatchEngine:
    """One lockstep batch: live-row state and the round loop.

    Each round's protocol step is the shared
    :class:`~repro.core.protocols.kernels.Kernel` over the live rows, and
    its termination, accounting and telemetry are the
    :class:`~repro.sim.book.RoundBook`'s; this class owns the stacked state
    around them.  Live-batch state arrays hold only still-running
    replications and are compacted whenever the book ends one, so
    steady-state rounds never gather/scatter the full batch;
    ``assignment`` (full ``R`` rows) is written when a row ends.  ``asgF``
    carries each live row's flat offset (position * m) baked into the
    values, so every per-mover gather/scatter is one flat ``take``/put.
    """

    def __init__(
        self,
        instance: Instance,
        protocol,
        schedule: Schedule,
        seeds: list[int | np.random.Generator],
        max_rounds: int,
        initial: str,
    ):
        self.protocol = protocol
        self.max_rounds = max_rounds
        self.alpha_draws = isinstance(schedule, AlphaSchedule) and schedule.alpha < 1.0
        self.alpha = schedule.alpha if isinstance(schedule, AlphaSchedule) else 1.0
        self.book = RoundBook(instance, protocol, schedule, seeds, max_rounds)

        rngs = [
            s if isinstance(s, np.random.Generator) else np.random.default_rng(s)
            for s in seeds
        ]
        R = len(rngs)
        self.live_rngs = rngs
        self.instance = instance
        n, m = self.n, self.m = instance.n_users, instance.n_resources
        # Each row's first flat resource and first flat position, with one
        # entry past the last row: the row boundaries of flat arrays.
        self.row_off = np.arange(R + 1, dtype=np.int64) * m
        self.row_pos = np.arange(R + 1, dtype=np.int64) * n
        self.kernel = Kernel(instance, protocol, rows=R)
        # Reused per-round scratch, sliced to the live count: the float
        # rows serve the per-user latency gather (non-uniform thresholds)
        # and the alpha draws.
        need_usr = not self.kernel.uthr or self.alpha_draws
        self.usr_buf = np.empty((R, n), dtype=np.float64) if need_usr else None
        self.unsat_buf = np.empty((R, n), dtype=bool)
        self.act_buf = np.empty((R, n), dtype=bool) if self.alpha_draws else None

        # Stacked assignment/load state; every replication starts live.  The
        # scalar engine's protocol.reset/schedule.reset consume no RNG for
        # the supported kernels; the only per-run rate state, the backoff
        # probabilities, is the kernel's.
        self.assignment, self.ld = _batch_initial(instance, initial, rngs)
        self.asgF = _flat_assignment(self.assignment, m)

    def _retire(self, keep: np.ndarray, rows: np.ndarray) -> None:
        """Write the final assignments of the rows the book ended (``rows``
        are the live rows' replication ids before it dropped them), then
        keep only the live rows ``keep`` marks: compact the loads, flat
        assignment (re-based to the kept rows' offsets), the kernel's
        backoff probabilities and RNG streams."""
        row_off = self.row_off[: rows.size]
        gone = ~keep
        self.assignment[rows[gone]] = self.asgF[gone] - row_off[gone][:, None]
        kept_off = row_off[keep]
        self.ld = self.ld[keep]
        asgF = self.asgF[keep]
        asgF -= (kept_off - self.row_off[: kept_off.size])[:, None]
        self.asgF = asgF
        if self.kernel.backoff:
            self.kernel.P = self.kernel.P[keep]
        self.live_rngs = [g for g, kp in zip(self.live_rngs, keep) if kp]

    def _quiescent(self, k: int) -> bool | None:
        """Live row ``k``'s ``is_quiescent`` verdict."""
        return self.protocol.is_quiescent(State(self.instance, self.asgF[k] - k * self.m))

    # -- the round loop -------------------------------------------------------

    def run(self) -> None:
        book = self.book

        with book:
            for round_index in range(self.max_rounds + 1):
                A = book.live
                n, m = self.n, self.m
                row_off = self.row_off
                asgF, ld = self.asgF, self.ld
                kernel = self.kernel

                res_lat = self.instance.latencies.evaluate(ld)
                if kernel.uthr:
                    # Uniform threshold: mark bad *resources* once, then one
                    # bool gather — 1/8th the bandwidth of the float gather +
                    # compare.
                    res_bad = res_lat > kernel.q0
                    unsat = np.take(res_bad.reshape(-1), asgF, out=self.unsat_buf[:A])
                else:
                    usr_lat = np.take(res_lat.reshape(-1), asgF, out=self.usr_buf[:A])
                    unsat = np.greater(
                        usr_lat, self.instance.thresholds, out=self.unsat_buf[:A]
                    )
                n_unsat = np.count_nonzero(unsat, axis=1)

                rows = book.rows
                keep = book.start(round_index, n_unsat, pending=False)
                if keep is not None:
                    self._retire(keep, rows)
                    if not book.live:
                        break
                    asgF, ld = self.asgF, self.ld
                    n_unsat = n_unsat[keep]
                    unsat = unsat[keep]  # copies out of the scratch buffer
                    A = book.live

                # -- per-rep RNG draws, in each stream's scalar order --------
                # Streams are independent, so interleaving *across*
                # replications is free; what the parity contract fixes is
                # the order *within* each stream — alpha mask, then the
                # kernel's own draw sequence.
                if self.alpha_draws:
                    act = self.act_buf[:A]
                    draws = self.usr_buf[:A]  # scratch rows; usr_lat is not read again
                    for k in range(A):
                        self.live_rngs[k].random(out=draws[k])
                    np.less(draws, self.alpha, out=act)
                    act &= unsat
                    counts = np.count_nonzero(act, axis=1)
                    movers_src = act
                else:
                    counts = n_unsat
                    movers_src = unsat

                if counts.any():
                    # Every group proposes against the round-start state; the
                    # committed triples are applied once, after the last group.
                    rnd = Round(kernel, asgF.reshape(-1), ld.reshape(-1), unsat.reshape(-1))
                    parts = []
                    for k0, k1 in _mover_groups(counts):
                        # flat (row, user) positions of the group's movers
                        pos = np.flatnonzero(movers_src[k0:k1])
                        bounds = rkm = None  # one row: flat positions are users
                        if A > 1:
                            pos += k0 * n
                            bounds = csr_offsets(counts[k0:k1])
                            rkm = np.repeat(row_off[k0:k1], counts[k0:k1])  # per-mover row offset
                        parts.append(kernel(rnd, pos, self.live_rngs, bounds, rkm, k0))
                        del pos, bounds, rkm
                    del rnd
                    fu_f, t_f, tf_f = (
                        parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
                    )
                    del parts
                    # Every kernel returns its commits grouped by row in row
                    # order, sorted by flat target (permit) or by flat
                    # position (the others): the row boundaries of the sorted
                    # key give each row's attempt count.
                    if kernel.kind == "permit":
                        cut = tf_f.searchsorted(row_off[: A + 1])
                    else:
                        cut = fu_f.searchsorted(self.row_pos[: A + 1])
                    n_attempts = n_moved = np.diff(cut)
                    asg_flat = asgF.reshape(-1)
                    of_f = asg_flat.take(fu_f)
                    if kernel.self_targets:
                        # A self-jump is an attempt, not a move (apply_migrations
                        # drops it on the scalar engine).
                        stay = (of_f == tf_f).nonzero()[0]
                        n_moved = n_attempts - np.diff(stay.searchsorted(cut))
                        if stay.size and not kernel.uw:
                            # Weighted loads drop them: (x - w) + w need not be
                            # x.  Unit-weight loads are exact integers, so a
                            # self-jump's -1 + 1 at one resource changes none.
                            mv = (of_f != tf_f).nonzero()[0]
                            fu_f, t_f, tf_f, of_f = (a.take(mv) for a in (fu_f, t_f, tf_f, of_f))
                    if fu_f.size:
                        if kernel.uw:
                            # unit weights: plain integer bincounts; the integer
                            # count equals the serial sum of 1.0s exactly
                            sub = np.bincount(of_f, minlength=A * m)
                            add = np.bincount(tf_f, minlength=A * m)
                        else:
                            w_f = kernel.wF.take(fu_f)
                            sub = np.bincount(of_f, weights=w_f, minlength=A * m)
                            add = np.bincount(tf_f, weights=w_f, minlength=A * m)
                        ld_flat = ld.reshape(-1)
                        ld_flat -= sub  # (ld - sub) + add: the scalar IEEE order
                        ld_flat += add
                        asg_flat[fu_f] = tf_f
                else:
                    fu_f = tf_f = t_f = np.empty(0, dtype=np.int64)
                    n_attempts = n_moved = np.zeros(A, dtype=np.int64)

                if kernel.backoff:
                    kernel.observe_backoff(ld.reshape(-1), fu_f, t_f, tf_f)

                rows = book.rows
                keep = book.step(
                    round_index, n_moved, n_attempts, counts,
                    pending=False, quiescent=self._quiescent,
                )
                if keep is not None:
                    self._retire(keep, rows)
                    if not book.live:
                        break


def run_batch(
    instance: Instance,
    protocol,
    *,
    seeds: list[int | np.random.Generator],
    schedule: Schedule | None = None,
    max_rounds: int = 100_000,
    initial: str = "random",
) -> BatchRunResult:
    """Run ``len(seeds)`` replications of one configuration lockstep.

    ``seeds`` are integer seeds (each becomes an independent
    ``numpy.random.default_rng(seed)`` stream, the scalar path's mapping)
    or pre-built generators (exact-replay tests pass these to compare
    streams against the scalar engine).
    Raises :class:`ValueError` for protocol/schedule combinations
    without a batched kernel — callers that want graceful degradation go
    through :func:`~repro.sim.parallel.replicate`, which falls back to the
    scalar path instead.
    """
    if max_rounds < 0:
        raise ValueError("max_rounds must be non-negative")
    if not seeds:
        raise ValueError("seeds must be non-empty")
    schedule = schedule if schedule is not None else SynchronousSchedule()
    reason = _kernel_support(protocol, schedule)
    if reason is not None:
        raise ValueError(f"no batched kernel: {reason}")

    engine = _BatchEngine(instance, protocol, schedule, seeds, max_rounds, initial)
    engine.run()
    return BatchRunResult(results=engine.book.results, final_assignment=engine.assignment)


def replicate_batched(
    spec,
    n_reps: int,
    *,
    base_seed: int = 0,
    seed_key: str | None = None,
    rep_indices: Sequence[int] | None = None,
) -> list[RunResult]:
    """Batched analogue of :func:`~repro.sim.parallel.replicate`.

    Seeds are derived exactly as the scalar path derives them (same
    :func:`~repro.sim.parallel.rep_seed` chain including the per-rep
    ``"run"`` subkey) and feed the same ``default_rng`` stream
    construction, so a batched cell is not merely replayable rep-by-rep —
    its per-rep results are bit-identical to a
    :func:`~repro.sim.parallel.run_spec` loop over the same seeds.  Raises
    for specs without a batched kernel; ``replicate`` runs those on the
    scalar engine.

    ``rep_indices`` runs an arbitrary slice of a larger replication set:
    seeds are derived from the given global indices instead of
    ``range(n_reps)``, which is how ``replicate`` shards one logical batch
    across processes without changing any per-rep stream.
    """
    from .parallel import _spec_components, rep_seed, spec_seed_key

    if n_reps < 1:
        raise ValueError("n_reps must be >= 1")
    reason = batch_support(spec)
    if reason is not None:
        raise ValueError(f"spec has no batched kernel: {reason}")
    if rep_indices is None:
        indices: Sequence[int] = range(n_reps)
    else:
        indices = [int(i) for i in rep_indices]
        if len(indices) != n_reps:
            raise ValueError("rep_indices must have exactly n_reps entries")
    key = seed_key if seed_key is not None else spec_seed_key(spec)
    rep_seeds = [rep_seed(base_seed, key, i) for i in indices]
    instance, protocol, schedule = _spec_components(spec)
    batch = run_batch(
        instance,
        protocol,
        seeds=[seed_from_key(s, "run") for s in rep_seeds],
        schedule=schedule,
        max_rounds=spec.max_rounds,
        initial=spec.initial,
    )
    return batch.decompose()
