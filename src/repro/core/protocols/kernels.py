"""The sample-then-commit kernels: the one copy of six protocols' round math.

:class:`~repro.core.protocols.QoSSamplingProtocol` (and
:class:`~repro.core.protocols.NaiveGreedyProtocol`, its rate-1 case),
:class:`~repro.core.protocols.MultiProbeProtocol`,
:class:`~repro.core.protocols.PermitProtocol` and
:class:`~repro.core.protocols.NeighborhoodSamplingProtocol` share one round
shape: every unsatisfied active user draws one or more probe targets,
keeps the ones that would satisfy it, and commits with a probability given
by the migration-rate rule (the permit protocol's grant scan replaces the
rate).  :class:`~repro.core.protocols.BlindRandomProtocol` is the shape
with the check left out: a mover keeps its jump with probability
``jump_p`` and draws one target, its own resource included.
:class:`Kernel` holds that math once — five kernels — over ``A`` stacked
rows:

- ``asg`` is the flat ``(A * n,)`` assignment whose values carry each
  row's offset (``row * m + r``), so a flat mover position ``row * n + u``
  gathers its flat own resource with one ``take``;
- ``ld`` is the flat ``(A * m,)`` load vector and ``unsat`` the flat
  ``(A * n,)`` unsatisfied mask;
- ``pos`` holds the flat positions of movers (a subset of ``unsat``),
  row-major;
- ``rngs`` holds one generator per row.  Every row's stream makes exactly
  the draws of a lone run, in the same order and sizes — each draw whole,
  because splitting one changes the stream.

A round starts by binding ``asg``, ``ld`` and ``unsat`` into a
:class:`Round`.  The passes over the whole batch that a commit or a
grant needs (the slack rate's free capacities, its contention counts,
permit's binding thresholds) are computed there at most once per round,
whatever number of mover groups the round's movers are proposed in.

The kernel is the one owner of the adaptive-backoff rule's per-user
probabilities: ``Kernel.P``, one ``(rows, n)`` float vector per kernel,
read by the commit and updated by :meth:`Kernel.observe_backoff` after a
round's moves are applied, on either engine.

At ``A = 1`` a flat position is a user and a flat target a resource, so the
one-row view is just ``State.assignment`` and ``State.loads``: every
protocol's :meth:`SampleCommitProtocol.step` runs its kernel directly on
them, with no row offsets and no tiled lookups, and applies the commits
through :meth:`State.apply_migrations
<repro.core.state.State.apply_migrations>`.  The lockstep engine
(:mod:`repro.sim.batch`) runs the same kernel once per mover group: the
contiguous live rows ``k0 .. k0 + len(bounds) - 2``, with ``bounds``
(each row's slice of the group's ``pos``) and ``rkm`` (each mover's row
offset).  A row index ``k`` is always the live-row index, so a group's
rows draw from ``rngs[k]`` and carry the offset ``k * m``.

Each kernel returns the committed ``(flat positions, resources, flat
targets)``; only the blind kernel's may include a mover's own resource
(``Kernel.self_targets``), which the round counts as an attempt and not
as a move.  Every value a kernel computes is elementwise IEEE work or an
exact integer reduction, so a row's result does not depend on ``A``, on
the chunk span, or on the index widths.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..instance import Instance
from ..memory import index_dtype, iter_chunks
from ..state import State
from .base import Protocol, StepOutcome
from .rates import (
    AdaptiveBackoffRate,
    ConstantRate,
    MigrationRateRule,
    SlackProportionalRate,
)

__all__ = [
    "Kernel",
    "Round",
    "SampleCommitProtocol",
    "kernel_kind",
    "rank_dtype",
    "rate_support",
]

#: Rate rules the kernels implement (exact types: a subclass may change
#: the rule's meaning without the kernel knowing).
KERNEL_RATES = (ConstantRate, SlackProportionalRate, AdaptiveBackoffRate)


def kernel_kind(protocol) -> str | None:
    """The kernel the lockstep engine may run for ``protocol``, a protocol
    class or instance (None = none).

    Read from the class itself, not inherited: a subclass may override
    ``step`` and diverge from the kernel, so it has none until it names
    one itself.
    """
    return vars(protocol if isinstance(protocol, type) else type(protocol)).get("kernel")


def rate_support(rate: MigrationRateRule) -> str | None:
    """Why no kernel implements ``rate`` (None = one does)."""
    if type(rate) in KERNEL_RATES:
        return None
    return f"rate {getattr(rate, 'name', rate)!r} ({type(rate).__name__}) has no kernel"


def rank_dtype(n_probes: int) -> np.dtype:
    """Width of the permit scan's ranks, which run up to the ``n_probes`` sentinel."""
    return index_dtype(n_probes + 1)


def _empty3():
    z = np.empty(0, dtype=np.int64)
    return z, z, z


class Round:
    """One round's whole-batch inputs, shared by every mover group.

    ``asg``, ``ld`` and ``unsat`` are the round-start flat arrays (see the
    module docstring); no group writes them.  The passes over them that a
    commit or a grant needs are cached properties: the first group that
    needs one computes it, later groups of the same round reuse it, and a
    round that never reaches them pays nothing.
    """

    def __init__(self, kernel: "Kernel", asg, ld, unsat):
        self.kernel = kernel
        self.asg, self.ld, self.unsat = asg, ld, unsat

    @cached_property
    def free(self) -> np.ndarray:
        """Free capacity of every (row, resource) at the uniform threshold."""
        return np.maximum(0.0, self.kernel.capacities()[: self.ld.size] - self.ld)

    @cached_property
    def contention(self) -> np.ndarray:
        """Unsatisfied users on every (row, resource), at least 1."""
        ld, asg, unsat = self.ld, self.asg, self.unsat
        if self.kernel.uthr and self.kernel.uw:
            # uniform q + unit weights: everyone on an over-threshold
            # resource is unsatisfied, and a mover's own resource is over
            # threshold — so the unsatisfied count there is its load.
            return np.maximum(ld, 1.0)
        # Integer bincounts are exact, so accumulating per chunk is
        # bit-identical to one whole-width pass.
        occ = np.zeros(ld.size, dtype=np.int64)
        for cs, ce in iter_chunks(unsat.size):
            occ += np.bincount(asg[cs:ce][unsat[cs:ce]], minlength=ld.size)
        return np.maximum(occ, 1)

    @cached_property
    def binding(self) -> np.ndarray:
        """Smallest threshold among the *satisfied* residents of every (row,
        resource) — inf where none: the constraint a permit grant must not
        violate.  min over a set of floats is order-independent, so the
        chunked accumulation is exact."""
        kernel, asg, unsat = self.kernel, self.asg, self.unsat
        Am = self.ld.size
        res = np.full(Am, np.inf)
        if kernel.uthr:
            # uniform q: occupied-by-a-satisfied-user == min equals q0
            occupied = np.zeros(Am, dtype=np.int64)
            for cs, ce in iter_chunks(unsat.size):
                occupied += np.bincount(asg[cs:ce][~unsat[cs:ce]], minlength=Am)
            res[occupied > 0] = kernel.q0
        else:
            for cs, ce in iter_chunks(unsat.size):
                sat = ~unsat[cs:ce]
                np.minimum.at(res, asg[cs:ce][sat], kernel.thrF[cs:ce][sat])
        return res


class Kernel:
    """One protocol's round math on one instance, for up to ``rows`` rows.

    Built once per instance: the uniformity flags below collapse
    per-mover gathers into scalar broadcasts, and every branch they gate
    computes bit-identical values to the general path (``1.0 * x + 0.0``
    only ever feeds comparisons, where the zero sign cannot matter).
    Per-user and per-resource lookups are tiled ``rows`` times so a flat
    position indexes them directly; at ``rows = 1`` they are the
    instance's own arrays.  Under :class:`AdaptiveBackoffRate` the
    kernel also owns the per-run backoff probabilities ``P``, ``(rows,
    n)`` and starting at ``p0``; the lockstep engine drops retired rows
    from it.
    """

    def __init__(self, instance: Instance, protocol, rows: int = 1):
        self.kind = protocol.kernel
        self.rate = rate = getattr(protocol, "rate", None)
        if rate is not None:
            reason = rate_support(rate)
            if reason is not None:
                raise ValueError(reason)
        self.const_p = rate.p if type(rate) is ConstantRate else None
        self.backoff = type(rate) is AdaptiveBackoffRate
        self.d = int(getattr(protocol, "d", 1))
        self.jump_p = float(getattr(protocol, "jump_p", 1.0))
        # Only the blind kernel returns self-targets (its round counts them
        # as attempts), so only its rounds pay the gather that drops them.
        self.self_targets = self.kind == "blind"
        self.graph = getattr(protocol, "graph", None)
        self.resample = bool(getattr(protocol, "resample_on_self", False))

        self.instance = instance
        n, m = instance.n_users, instance.n_resources
        self.n, self.m = n, m
        thresholds, weights = instance.thresholds, instance.weights
        profile = self.profile = instance.latencies
        self.access = instance.access
        self.affine = profile.is_affine
        slopes, offsets = profile._slopes, profile._offsets
        self.uthr = instance.uniform_thresholds
        self.q0 = float(thresholds[0]) if self.uthr else 0.0
        self.uw = instance.unit_weights
        # The profile groups value-equal functions, so one affine group is
        # one slope and one offset for every resource.
        self.u_affine = self.affine and len(profile._groups) == 1
        self.s0 = float(slopes[0]) if self.u_affine else 0.0
        self.o0 = float(offsets[0]) if self.u_affine else 0.0
        self.identity = self.u_affine and self.s0 == 1.0 and self.o0 == 0.0
        self.rows = rows
        self.wF = None if self.uw else self._tile(weights)
        self.thrF = None if self.uthr else self._tile(thresholds)
        aff_general = self.affine and not self.u_affine
        self.slF = self._tile(slopes) if aff_general else None
        self.offF = self._tile(offsets) if aff_general else None
        self.capF = None  # lazy per-resource capacity at the one q (slack rate)
        self.P = np.full((rows, n), rate.p0) if self.backoff else None

    def _tile(self, a: np.ndarray) -> np.ndarray:
        # ``take`` copies a non-contiguous source on every call, so a
        # zero-stride column (uniform non-unit weights) is made whole once.
        return np.ascontiguousarray(a) if self.rows == 1 else np.tile(a, self.rows)

    def __call__(self, rnd, pos, rngs, bounds=None, rkm=None, k0=0):
        """This protocol's kernel on one mover group of the :class:`Round`
        ``rnd``: the committed ``(flat positions, resources, flat
        targets)``.  Looked up per call, so a kernel holds no reference
        cycle and dies with its protocol or batch."""
        return getattr(self, "_" + self.kind)(rnd, pos, rngs, bounds, rkm, k0)

    def capacities(self) -> np.ndarray:
        """Per-(row, resource) capacity at the uniform threshold, built once."""
        if self.capF is None:
            cap_row = self.profile.capacities_at(
                np.arange(self.m, dtype=np.int64), np.full(self.m, self.q0)
            ).astype(np.float64)
            self.capF = self._tile(cap_row)
        return self.capF

    # -- shared helpers -------------------------------------------------------

    @staticmethod
    def _spans(bounds, M: int, k0: int):
        """``(row, start, stop)`` of every group row with movers; others draw
        nothing."""
        if bounds is None:
            return ((k0, 0, M),) if M else ()
        return [
            (k, s, e)
            for k, (s, e) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist()), k0)
            if s != e
        ]

    def _draw(self, rng, users, size):
        """One uniform accessible resource per mover, as one whole draw."""
        if self.access is None:
            return rng.integers(0, self.m, size=size)
        return self.access.sample(users, rng)

    @staticmethod
    def _keep(idx, pos, t, rkm):
        """The movers at ``idx``: their positions, targets and row offsets."""
        return pos.take(idx), t.take(idx), None if rkm is None else rkm.take(idx)

    def _users(self, pos, rkm):
        """Per-mover user ids (only the access map needs them)."""
        if self.access is None:
            return None
        return pos if rkm is None else pos % self.n

    def _probe_latency(self, t, tf, hyp):
        """``ell_t(hyp)`` per probe — only ever fed to comparisons."""
        if self.identity:
            return hyp
        if self.u_affine:
            return self.s0 * hyp + self.o0
        if self.affine:
            return self.slF.take(tf) * hyp + self.offF.take(tf)
        return self.profile.evaluate_at(t, hyp)

    def _threshold(self, pos):
        return self.q0 if self.uthr else self.thrF.take(pos)

    def _satisfying(self, asg, ld, pos, t, rkm):
        """Indices into ``pos`` of movers whose probe would satisfy them.

        A probe satisfies when the target's load plus the mover's weight
        stays within its threshold and the target is not its own resource.
        Purely elementwise per mover, so it streams over chunks and keeps
        only the surviving indices full-width.
        """
        parts = []
        for cs, ce in iter_chunks(pos.size):
            p, t_ch = pos[cs:ce], t[cs:ce]
            tf = t_ch if rkm is None else rkm[cs:ce] + t_ch
            moving = tf != asg.take(p)
            hyp = ld.take(tf)
            hyp += moving if self.uw else np.where(moving, self.wF.take(p), 0.0)
            ok = self._probe_latency(t_ch, tf, hyp) <= self._threshold(p)
            ok &= moving
            part = ok.nonzero()[0]
            if cs:
                part += cs
            parts.append(part)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    # -- commit machinery -----------------------------------------------------

    def _commit_prob(self, rnd, pos, t, rkm):
        """Each mover's commit probability under the rate rule.

        A scalar for the constant rate.  For the slack-proportional rate,
        ``free target / contention here``: how many more users the target
        can take within the mover's own threshold, over the number of
        unsatisfied users on the mover's current resource.  Both factors
        are per-resource vectors gathered per mover, so the probability
        costs a few passes whether or not the probe would satisfy.
        """
        if self.const_p is not None:
            return self.const_p
        if self.backoff:
            return self.P.reshape(-1).take(pos)
        tf = t if rkm is None else rkm + t
        if self.uthr:
            free = rnd.free.take(tf)
        else:
            free = self.profile.capacities_at(t, self.thrF.take(pos)).astype(np.float64)
            free -= rnd.ld.take(tf)
            np.maximum(0.0, free, out=free)
        del tf
        # (gathers index fastest with intp positions, so the narrow own
        # resources are widened first)
        free /= rnd.contention.take(rnd.asg.take(pos).astype(np.intp))
        return np.clip(free, self.rate.floor, 1.0, out=free)

    def _uniforms(self, vpos, rngs, bounds, k0):
        """Commit uniforms over the valid movers, in each row's stream order.

        A row with no valid mover draws nothing (a lone run's kernel
        returns before its commit draw).
        """
        if bounds is None:
            return rngs[k0].random(vpos.size)
        cnt = np.bincount(vpos // self.n - k0, minlength=bounds.size - 1).tolist()
        unif = np.empty(vpos.size, dtype=np.float64)
        off = 0
        for k, c in enumerate(cnt, k0):
            if c:
                rngs[k].random(out=unif[off : off + c])
                off += c
        return unif

    def _commit(self, rnd, rngs, bounds, k0, vpos, vt, rkm):
        """Rate-rule commit over the valid movers (multi-probe/neighborhood).

        ``rkm`` is the valid movers' row offsets (None at one row).
        """
        if vpos.size == 0:
            return _empty3()
        unif = self._uniforms(vpos, rngs, bounds, k0)
        idx = (unif < self._commit_prob(rnd, vpos, vt, rkm)).nonzero()[0]
        vt = vt.take(idx)
        return vpos.take(idx), vt, vt if rkm is None else rkm.take(idx) + vt

    def observe_backoff(self, ld, moved, t, tf) -> None:
        """:class:`AdaptiveBackoffRate`'s per-round update, in place on ``P``,
        once the round's moves are applied and ``ld`` holds the new loads.

        Users that sat the round out recover (capped at 1), movers keep the
        probability they moved with, and movers still over their threshold
        at the target (collided) back off from it, down to the floor.
        ``moved`` are the movers' flat positions, ``t`` and ``tf`` their
        targets and flat targets.
        """
        rate, P = self.rate, self.P.reshape(-1)
        p_moved = P.take(moved)
        np.multiply(P, rate.recover, out=P)
        np.minimum(P, 1.0, out=P)
        if moved.size:
            collided = self._probe_latency(t, tf, ld.take(tf)) > self._threshold(moved)
            P[moved] = p_moved
            P[moved[collided]] = np.maximum(p_moved[collided] * rate.backoff, rate.floor)

    # -- kernels: (rnd, pos, rngs, bounds, rkm, k0) -> committed --------------

    def _sampling(self, rnd, pos, rngs, bounds=None, rkm=None, k0=0):
        asg, ld = rnd.asg, rnd.ld
        M = pos.size
        t = np.empty(M, dtype=np.int64)
        unif = np.empty(M, dtype=np.float64)
        users = self._users(pos, rkm)
        for k, s, e in self._spans(bounds, M, k0):
            rng = rngs[k]
            u = None if users is None else users[s:e]
            t[s:e] = self._draw(rng, u, e - s)
            if self.resample:
                self._resample(rng, t[s:e], asg.take(pos[s:e]) - k * self.m, u)
            # One uniform per mover, drawn before the satisfaction filter:
            # the round makes the same calls however many probes succeed.
            rng.random(out=unif[s:e])
        del users

        # The committed set is one AND of independent masks — commit,
        # moving, would-satisfy — so the commit draw filters first and the
        # latency math only touches its survivors.
        prob = self._commit_prob(rnd, pos, t, rkm)
        cand = (unif < prob).nonzero()[0]  # uniforms live in [0, 1): p = 1 keeps all
        del unif, prob
        pos, t, rkm = self._keep(cand, pos, t, rkm)
        del cand
        pos, t, rkm = self._keep(self._satisfying(asg, ld, pos, t, rkm), pos, t, rkm)
        return pos, t, t if rkm is None else rkm + t

    def _resample(self, rng, t, own, users):
        """``resample_on_self``: redraw self-probes up to four times, in place."""
        clash = t == own
        for _ in range(4):  # leftovers just waste the probe
            if not clash.any():
                break
            idx = clash.nonzero()[0]
            t[idx] = self._draw(rng, None if users is None else users[idx], idx.size)
            clash = t == own

    def _multiprobe(self, rnd, pos, rngs, bounds=None, rkm=None, k0=0):
        asg, ld = rnd.asg, rnd.ld
        M, d, m = pos.size, self.d, self.m
        cand = np.empty(M * d, dtype=np.int64)
        users = self._users(pos, rkm)
        for k, s, e in self._spans(bounds, M, k0):
            if users is None:
                # size=(k, d) fills row-major: the stream consumption and
                # the flattened values equal a lone (k, d) draw exactly.
                cand[s * d : e * d] = rngs[k].integers(0, m, size=(e - s, d)).reshape(-1)
            else:
                cand[s * d : e * d] = self.access.sample(np.repeat(users[s:e], d), rngs[k])
        del users
        tfc = cand if rkm is None else np.repeat(rkm, d) + cand
        # The mover's weight is added unconditionally (even for
        # own-resource probes — those are masked out below, not here).
        hyp = ld.take(tfc) + (1.0 if self.uw else np.repeat(self.wF.take(pos), d))
        lat = self._probe_latency(cand, tfc, hyp).reshape(M, d)
        del hyp
        thr = self.q0 if self.uthr else self.thrF.take(pos)[:, None]
        valid = lat <= thr
        del thr
        valid &= tfc.reshape(M, d) != asg.take(pos)[:, None]
        del tfc
        # Max headroom = min post-arrival latency among valid probes.
        np.copyto(lat, np.inf, where=~valid)
        best = np.argmin(lat, axis=1)
        del lat
        best += np.arange(0, M * d, d)
        vidx = valid.reshape(-1).take(best).nonzero()[0]
        del valid
        pos, t, rkm = self._keep(vidx, pos, cand.take(best), rkm)
        del vidx, best
        return self._commit(rnd, rngs, bounds, k0, pos, t, rkm)

    def _neighborhood(self, rnd, pos, rngs, bounds=None, rkm=None, k0=0):
        asg, ld = rnd.asg, rnd.ld
        M = pos.size
        own = asg.take(pos) if rkm is None else asg.take(pos) - rkm
        t = np.empty(M, dtype=np.int64)
        for k, s, e in self._spans(bounds, M, k0):
            t[s:e] = self.graph.sample_neighbor(own[s:e], rngs[k])
        del own
        pos, t, rkm = self._keep(self._satisfying(asg, ld, pos, t, rkm), pos, t, rkm)
        if self.access is not None:
            # The resource graph knows nothing about per-user accessibility:
            # drop probes of forbidden resources (wasted, like a self-sample).
            ok = self.access.contains(self._users(pos, rkm), t).nonzero()[0]
            pos, t, rkm = self._keep(ok, pos, t, rkm)
        return self._commit(rnd, rngs, bounds, k0, pos, t, rkm)

    def _blind(self, rnd, pos, rngs, bounds=None, rkm=None, k0=0):
        """Jump without looking: each mover keeps its jump with probability
        ``jump_p``, then draws one accessible target.  Self-jumps stay in
        the committed set."""
        M, jump_p = pos.size, self.jump_p
        t = np.empty(M, dtype=np.int64)
        jumps = np.ones(M, dtype=bool) if jump_p < 1.0 else None
        users = self._users(pos, rkm)
        for k, s, e in self._spans(bounds, M, k0):
            rng = rngs[k]
            u = None if users is None else users[s:e]
            if jumps is None:
                t[s:e] = self._draw(rng, u, e - s)
                continue
            keep = np.less(rng.random(e - s), jump_p, out=jumps[s:e])
            c = int(np.count_nonzero(keep))
            if c:  # a row with no jumper draws no target
                t[s:e][keep] = self._draw(rng, None if u is None else u[keep], c)
        del users
        if jumps is not None:
            pos, t, rkm = self._keep(jumps.nonzero()[0], pos, t, rkm)
        return pos, t, t if rkm is None else rkm + t

    def _permit(self, rnd, pos, rngs, bounds=None, rkm=None, k0=0):
        asg, ld = rnd.asg, rnd.ld
        M = pos.size
        t = np.empty(M, dtype=np.int64)
        users = self._users(pos, rkm)
        for k, s, e in self._spans(bounds, M, k0):
            t[s:e] = self._draw(rngs[k], None if users is None else users[s:e], e - s)
        del users
        tf = t if rkm is None else rkm + t
        pidx = (tf != asg.take(pos)).nonzero()[0]
        if pidx.size == 0:
            return _empty3()

        # Group probes by (row, target), each group sorted by threshold
        # descending.  Flat targets separate rows, so one global stable
        # sort reproduces every row's own sort exactly.  One reordered
        # index gathers every per-probe array once.
        tf_p = tf.take(pidx)
        if self.uthr:
            order = np.argsort(tf_p, kind="stable")
            q_s = self.q0
        else:
            q_p = self.thrF.take(pos.take(pidx))
            order = np.lexsort((-q_p, tf_p))
            q_s = q_p.take(order)
            del q_p
        del tf_p
        sel = pidx.take(order)
        del pidx, order
        pos_s, t_s = pos.take(sel), t.take(sel)
        tf_s = t_s if rkm is None else tf.take(sel)
        del sel, t, tf, pos
        P2 = pos_s.size
        seg_start = np.empty(P2, dtype=bool)
        seg_start[0] = True
        np.not_equal(tf_s[1:], tf_s[:-1], out=seg_start[1:])
        starts = seg_start.nonzero()[0]
        seg_id = np.cumsum(seg_start)
        del seg_start
        seg_id -= 1
        # Ranks are never gather indices, so they stay narrow.
        ranks = rank_dtype(P2)
        within = np.arange(P2, dtype=ranks)
        within -= starts.take(seg_id).astype(ranks)

        # Cumulative granted weight within each group.  Unit weights:
        # the integer rank + 1 is the exact float64 sum of 1.0s.  General
        # weights: per-segment cumsum keeps the summation order.
        if self.uw:
            cw = within.astype(np.float64)
            cw += 1.0
        else:
            gw = self.wF.take(pos_s)
            cw = np.empty(P2, dtype=np.float64)
            bnd = np.append(starts, P2)
            for si in range(starts.size):
                a, b = bnd[si], bnd[si + 1]
                np.cumsum(gw[a:b], out=cw[a:b])
            del gw
        cw += ld.take(tf_s)
        bound = rnd.binding.take(tf_s)
        np.minimum(bound, q_s, out=bound)
        cond = self._probe_latency(t_s, tf_s, cw) <= bound
        del cw, bound
        # Largest prefix before the first violation: both sides are
        # monotone, so an early-exit scan grants exactly the entries
        # ranked before the first failing one.
        fail = np.where(cond, ranks.type(P2), within)
        del cond
        first_fail = np.minimum.reduceat(fail, starts)
        del fail
        gidx = (within < first_fail.take(seg_id)).nonzero()[0]
        t_g = t_s.take(gidx)
        return pos_s.take(gidx), t_g, t_g if rkm is None else tf_s.take(gidx)


class SampleCommitProtocol(Protocol):
    """Base of the six kernel protocols: ``step`` runs the kernel at A = 1.

    Subclasses name their kernel (``kernel = "sampling"``, ...) and carry
    its parameters — ``rate``, and ``d``, ``graph``, ``resample_on_self``
    or ``jump_p`` where they apply.  The kernel is built once per
    instance and reads ``State.assignment`` and ``State.loads`` in place.
    """

    kernel: str
    rate: MigrationRateRule | None = None
    _compiled: Kernel | None = None

    def reset(self, instance: Instance, rng: np.random.Generator) -> None:
        """Build the kernel, with fresh per-run backoff probabilities (a
        rate without a kernel raises ``ValueError``)."""
        self._compiled = Kernel(instance, self)

    def step(self, state: State, active: np.ndarray, rng: np.random.Generator) -> StepOutcome:
        """Commit the round's moves, apply them simultaneously, then update
        the backoff probabilities."""
        compiled = self._compiled
        if compiled is None or compiled.instance is not state.instance:
            compiled = self._compiled = Kernel(state.instance, self)
        unsat = ~state.satisfied_mask()
        rnd = Round(compiled, state.assignment, state.loads, unsat)
        # The mover positions go straight into the call, so the kernel's
        # rebinding of ``pos`` frees them (no caller reference survives).
        users, targets, _ = compiled(rnd, (active & unsat).nonzero()[0], (rng,))
        del rnd, unsat
        n_moved = state.apply_migrations(users, targets)
        if compiled.backoff:
            compiled.observe_backoff(state.loads, users, targets, targets)
        return StepOutcome(n_attempted=users.size, n_moved=n_moved)
