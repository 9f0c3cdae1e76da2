"""The memory/dtype contract: narrowing, chunking, CSR access maps.

Companion to the wide-vs-narrow grid in ``tests/test_batch.py``: that
grid proves whole trajectories are dtype-invariant; this module pins the
contract pieces individually — :func:`index_dtype` boundaries, chunk
iteration semantics, the CSR-first ``AccessMap`` construction paths and
their validation errors — the lockstep engine's mover groups, and the
million-user smoke cell (stress).
"""

import numpy as np
import pytest

from repro.bench import HUGE_CELLS, _huge_cell
from repro.core.instance import AccessMap, Instance
from repro.core.memory import (
    csr_offsets,
    index_dtype,
    iter_chunks,
    set_user_chunk,
    user_chunk,
    wide_dtypes,
)
from repro.core.protocols import PermitProtocol, QoSSamplingProtocol
import repro.sim.batch as batch_module
from repro.core.protocols.kernels import rank_dtype
from repro.core.protocols.neighborhood import ResourceGraph
from repro.core.protocols.rates import SlackProportionalRate
from repro.registry import build_instance
from repro.sim.batch import _flat_assignment, _mover_groups, run_batch
from repro.sim.engine import run


# ---------------------------------------------------------------------------
# index_dtype: boundaries and the wide-mode hook.
# ---------------------------------------------------------------------------


class TestIndexDtype:
    @pytest.mark.parametrize(
        "bound,expected",
        [
            (0, np.int16),
            (1, np.int16),
            (2**15, np.int16),
            (2**15 + 1, np.int32),
            (2**31, np.int32),
            (2**31 + 1, np.int64),
            (10**12, np.int64),
        ],
    )
    def test_boundaries(self, bound, expected):
        assert index_dtype(bound) == np.dtype(expected)

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            index_dtype(-1)

    def test_wide_mode_forces_int64_and_restores(self):
        assert index_dtype(4) == np.dtype(np.int16)
        with wide_dtypes():
            assert index_dtype(4) == np.dtype(np.int64)
            with wide_dtypes():  # re-entrant
                assert index_dtype(4) == np.dtype(np.int64)
            assert index_dtype(4) == np.dtype(np.int64)
        assert index_dtype(4) == np.dtype(np.int16)

    def test_wide_mode_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with wide_dtypes():
                raise RuntimeError("boom")
        assert index_dtype(4) == np.dtype(np.int16)


# ---------------------------------------------------------------------------
# Chunk iteration.
# ---------------------------------------------------------------------------


class TestChunks:
    def test_spans_tile_exactly(self):
        prev = set_user_chunk(7)
        try:
            spans = list(iter_chunks(23))
            assert spans == [(0, 7), (7, 14), (14, 21), (21, 23)]
            assert list(iter_chunks(7)) == [(0, 7)]
            assert list(iter_chunks(3)) == [(0, 3)]
            assert list(iter_chunks(0)) == []
        finally:
            set_user_chunk(prev)

    def test_set_returns_previous_and_rejects_nonpositive(self):
        prev = set_user_chunk(64)
        try:
            assert set_user_chunk(prev) == 64
            assert user_chunk() == prev
            with pytest.raises(ValueError):
                set_user_chunk(0)
        finally:
            set_user_chunk(prev)

    def test_tiny_chunk_is_trajectory_neutral(self):
        """Forcing many blocks on a small instance changes nothing — the
        chunked kernels are elementwise, so block boundaries are invisible."""
        inst = build_instance("random_access", n=48, m=8, degree=4, slack=0.4, rng=3)

        def legs():
            ref = run(
                inst,
                QoSSamplingProtocol(),
                seed=np.random.default_rng(17),
                max_rounds=400,
                initial="pile",
                keep_state=True,
            )
            batch = run_batch(
                inst,
                QoSSamplingProtocol(),
                seeds=[np.random.default_rng(17)],
                max_rounds=400,
                initial="pile",
            )
            return ref, batch

        ref_a, batch_a = legs()
        prev = set_user_chunk(7)
        try:
            ref_b, batch_b = legs()
        finally:
            set_user_chunk(prev)
        assert ref_a.summary() == ref_b.summary()
        assert np.array_equal(
            ref_a.final_state.assignment, ref_b.final_state.assignment
        )
        assert batch_a.statuses == batch_b.statuses
        assert np.array_equal(batch_a.final_assignment, batch_b.final_assignment)


# ---------------------------------------------------------------------------
# Mover groups: the lockstep engine's per-round scratch is bounded.
# ---------------------------------------------------------------------------


class TestMoverGroups:
    def test_groups_are_whole_rows_within_budget(self, monkeypatch):
        monkeypatch.setattr(batch_module, "MOVER_CHUNK", 10)
        groups = lambda counts: _mover_groups(np.array(counts))  # noqa: E731
        assert groups([3, 4, 3, 5]) == [(0, 3), (3, 4)]
        # a row over budget goes alone; rows without movers ride along
        assert groups([0, 12, 0, 0, 4, 0]) == [(0, 2), (2, 6)]
        assert groups([12, 0, 12]) == [(0, 1), (1, 3)]
        assert groups([0, 0]) == []
        assert groups([5]) == [(0, 1)]

    def test_one_group_at_the_default_budget(self):
        counts = np.full(4, batch_module.MOVER_CHUNK // 4)
        assert _mover_groups(counts) == [(0, 4)]
        assert _mover_groups(counts + 1) == [(0, 3), (3, 4)]

    def test_groups_bound_the_traced_peak(self, monkeypatch):
        """At R * n = 2 * MOVER_CHUNK, proposing a pile start in groups
        traces a lower peak than one whole-batch kernel call, by at least
        one (R, n) float64 array.  tracemalloc counts bytes, so this is
        deterministic; it asserts memory, never speed."""
        import sys
        import tracemalloc

        R, n = 16, 8192
        assert R * n >= 2 * batch_module.MOVER_CHUNK
        inst = build_instance("uniform_slack", n=n, m=64, slack=0.35)

        def traced_peak():
            protocol = QoSSamplingProtocol(rate=SlackProportionalRate())
            tracemalloc.start()
            try:
                run_batch(inst, protocol, seeds=list(range(R)), max_rounds=3, initial="pile")
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        grouped = traced_peak()
        monkeypatch.setattr(batch_module, "MOVER_CHUNK", sys.maxsize)
        whole = traced_peak()
        assert whole - grouped >= R * n * np.dtype(np.float64).itemsize, (grouped, whole)


# ---------------------------------------------------------------------------
# CSR-first AccessMap: construction paths agree, validation stays loud.
# ---------------------------------------------------------------------------


class TestAccessMapCSR:
    def test_from_csr_matches_list_constructor(self):
        allowed = [[0, 2], [1], [0, 1, 3], [3]]
        via_list = AccessMap(allowed, 4)
        choices = np.asarray([0, 2, 1, 0, 1, 3, 3])
        offsets = np.asarray([0, 2, 3, 6, 7])
        via_csr = AccessMap.from_csr(choices, offsets, 4)
        assert np.array_equal(via_list.choices, via_csr.choices)
        assert np.array_equal(via_list.offsets, via_csr.offsets)
        assert via_list.n_users == via_csr.n_users == 4
        for u, opts in enumerate(allowed):
            for r in range(4):
                assert via_csr.contains_one(u, r) == (r in opts)

    def test_from_csr_validation(self):
        offsets = np.asarray([0, 2, 4])
        with pytest.raises(ValueError, match="no accessible resource"):
            AccessMap.from_csr(np.asarray([0, 1]), np.asarray([0, 2, 2]), 4)
        with pytest.raises(ValueError, match="out-of-range"):
            AccessMap.from_csr(np.asarray([0, 1, 2, 4]), offsets, 4)
        with pytest.raises(ValueError, match="duplicate"):
            AccessMap.from_csr(np.asarray([0, 0, 1, 2]), offsets, 4)
        with pytest.raises(ValueError, match="sorted ascending"):
            AccessMap.from_csr(np.asarray([0, 1, 2, 1]), offsets, 4)

    def test_narrowed_keys_dtype(self):
        amap = AccessMap([[0, 1], [1, 2]], 3)
        assert amap.choices.dtype == index_dtype(3)
        with wide_dtypes():
            wide = AccessMap([[0, 1], [1, 2]], 3)
        assert wide.choices.dtype == np.dtype(np.int64)
        # membership answers are identical either way
        users = np.asarray([0, 0, 1, 1])
        targets = np.asarray([1, 2, 0, 2])
        assert np.array_equal(amap.contains(users, targets), wide.contains(users, targets))

    def test_contains_out_of_range_queries_are_false(self):
        amap = AccessMap([[0, 1], [1, 2]], 3)
        users = np.asarray([-1, 2, 0, 1, 0])
        targets = np.asarray([0, 0, -1, 3, 1])
        expected = np.asarray([False, False, False, False, True])
        assert np.array_equal(amap.contains(users, targets), expected)
        assert not amap.contains_one(-1, 0)
        assert not amap.contains_one(2, 0)
        assert not amap.contains_one(0, 3)
        assert not amap.contains_one(0, -1)

    def test_complete_map_is_csr_native(self):
        amap = AccessMap.complete(5, 3)
        assert amap.n_users == 5 and amap.n_resources == 3
        assert np.array_equal(amap.offsets, np.arange(6) * 3)
        assert amap.contains(np.arange(5), np.zeros(5, dtype=int)).all()

    @pytest.fixture
    def chunk3(self):
        previous = set_user_chunk(3)
        yield
        set_user_chunk(previous)

    @pytest.mark.parametrize(
        "choices,offsets,message",
        [
            # position 2 (last of the first chunk) and 3 (first of the second)
            ([0, 1, 2, 2, 4, 5], [0, 6], "user 0 has duplicate"),
            ([0, 1, 2, 3, 3, 5], [0, 6], "user 0 has duplicate"),
            ([0, 1, 3, 2, 4, 5], [0, 6], "user 0 accessible resources must be sorted"),
            ([0, 1, 2, 4, 3, 5], [0, 2, 6], "user 1 accessible resources must be sorted"),
            ([0, 1, 5, 2, 3, 3], [0, 3, 6], "user 1 has duplicate"),
        ],
    )
    def test_from_csr_errors_on_chunk_edges(self, chunk3, choices, offsets, message):
        with pytest.raises(ValueError, match=message):
            AccessMap.from_csr(np.asarray(choices), np.asarray(offsets), 8)

    @pytest.mark.parametrize(
        "choices,offsets",
        [
            ([0, 1, 5, 2, 3, 4], [0, 3, 6]),  # user 1 starts where chunk 2 does
            ([0, 1, 2, 5, 1, 2], [0, 4, 6]),  # user 1 starts one past a chunk start
            ([7, 6, 5, 4, 3, 2, 1], [0, 1, 2, 3, 4, 5, 6, 7]),  # one resource per user
        ],
    )
    def test_from_csr_accepts_descent_across_users_on_chunk_edges(
        self, chunk3, choices, offsets
    ):
        amap = AccessMap.from_csr(np.asarray(choices), np.asarray(offsets), 8)
        owners = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
        assert amap.choices.tolist() == choices
        assert amap._keys.tolist() == (owners * 8 + choices).tolist()

    def test_from_csr_scratch_is_bounded(self):
        """Validating and indexing a 2**20-entry layout allocates less than
        one int64 array of its width, the narrowed storage it keeps
        included: no check builds a full-width int64 temporary."""
        import tracemalloc

        n, d = 2**18, 4
        choices = np.tile(np.arange(d, dtype=np.int64), n)
        offsets = np.arange(n + 1, dtype=np.int64) * d
        previous = set_user_chunk(2**12)
        tracemalloc.start()
        try:
            AccessMap.from_csr(choices, offsets, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            set_user_chunk(previous)
        assert peak < choices.nbytes, peak

    def test_membership_keys_scratch_is_bounded_at_the_default_chunk(self):
        """Building the flat membership keys of 2**18 users of degree 4
        chunks its int64 ``owners`` scratch by flat entries, not by users:
        at the default chunk span the scratch beyond the arrays the map
        keeps stays under one int64 array of the flat width (1.5 of it
        when a user chunk spans the whole degree-4 layout)."""
        import tracemalloc

        n, d = 2**18, 4
        choices = np.tile(np.arange(d, dtype=np.int64), n)
        offsets = np.arange(n + 1, dtype=np.int64) * d
        amap = AccessMap.__new__(AccessMap)
        tracemalloc.start()
        try:
            amap._finalize(choices, offsets, 1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = amap._keys.nbytes + amap.choices.nbytes
        assert peak - kept < choices.nbytes, (peak, kept)
        owners = np.repeat(np.arange(n, dtype=np.int64), d)
        assert np.array_equal(amap._keys, owners * 1024 + choices)


# ---------------------------------------------------------------------------
# sparse_access generator: CSR-native, deterministic, valid.
# ---------------------------------------------------------------------------


class TestSparseAccess:
    def test_deterministic_and_valid(self):
        a = build_instance("sparse_access", n=64, m=16, degree=4, rng=5)
        b = build_instance("sparse_access", n=64, m=16, degree=4, rng=5)
        assert np.array_equal(a.access.choices, b.access.choices)
        counts = np.diff(a.access.offsets)
        assert (counts == 4).all()
        # per-user strictly ascending (no duplicates survived rejection)
        for u in range(64):
            lo, hi = a.access.offsets[u], a.access.offsets[u + 1]
            assert (np.diff(a.access.choices[lo:hi]) > 0).all()

    @pytest.mark.parametrize("degree", [1, 2, 4, 8])
    @pytest.mark.parametrize("n,m", [(500, 1024), (300, 9)])
    def test_layout_matches_the_sort_and_diff_construction(self, n, m, degree):
        """The in-place sort and column compare give the same draws,
        redraws and CSR layout as sorting a copy and comparing
        ``np.diff``; m = 9 forces redraw passes at every degree > 1."""
        from repro.sim.rng import make_rng

        for seed in range(4):
            generator = make_rng(seed)
            picks = np.sort(generator.integers(0, m, size=(n, degree)), axis=1)
            if degree > 1:
                bad = np.flatnonzero((np.diff(picks, axis=1) == 0).any(axis=1))
                while bad.size:
                    redraw = np.sort(generator.integers(0, m, size=(bad.size, degree)), axis=1)
                    picks[bad] = redraw
                    bad = bad[np.flatnonzero((np.diff(redraw, axis=1) == 0).any(axis=1))]
            choices = picks.reshape(-1)
            keys = np.repeat(np.arange(n, dtype=np.int64), degree) * m + choices

            access = build_instance("sparse_access", n=n, m=m, degree=degree, rng=seed).access
            assert np.array_equal(access.choices, choices)
            assert np.array_equal(access.offsets, np.arange(n + 1) * degree)
            assert np.array_equal(access._keys, keys)

    def test_runs_to_satisfaction(self):
        inst = build_instance("sparse_access", n=64, m=8, degree=3, slack=0.4, rng=1)
        result = run(inst, QoSSamplingProtocol(), seed=2, initial="pile", max_rounds=2000)
        assert result.status == "satisfying"


# ---------------------------------------------------------------------------
# Zero-stride unit weights: the loads bincount never copies them out.
# ---------------------------------------------------------------------------


def test_unit_weight_loads_allocate_no_weight_column():
    """Piling 2**20 unit-weight users on 64 resources allocates under
    4 MiB: the pile is built in the state's int16 index dtype and adopted
    without a copy, and the loads are an integer count read in place, so
    neither an int64 column, an intp copy nor the zero-stride weight
    column copied out is ever allocated (10 MiB with an int64 pile).  The
    loads equal the weighted bincount of ones exactly."""
    import tracemalloc

    from repro.core.state import State
    from repro.workloads.generators import uniform_slack

    n = 2**20
    inst = uniform_slack(n, 64)
    assert inst.weights.strides == (0,)
    tracemalloc.start()
    try:
        state = State.worst_case_pile(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert state.assignment.dtype == np.int16
    assert peak < 4 * 2**20, peak
    weighted = np.bincount(state.assignment, weights=np.ones(n), minlength=64)
    assert state.loads.dtype == np.float64
    assert state.loads.tobytes() == weighted.tobytes()
    state.check_invariants()


def test_access_map_pile_scratch_is_bounded():
    """Piling the 2**20 users of ``sparse_access(2**20, 64)`` (degree 4)
    allocates under 8 MiB: the pile starts from each user's slice head and
    looks up only the owners of the flat entries equal to the resource,
    with no membership query over every user (51 MiB that way)."""
    import tracemalloc

    from repro.core.state import State
    from repro.workloads.generators import sparse_access

    inst = sparse_access(2**20, 64)
    tracemalloc.start()
    try:
        state = State.worst_case_pile(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    assert state.assignment.dtype == index_dtype(64)
    # the membership query over every user, as the reference
    access, n = inst.access, inst.n_users
    has = access.contains(np.arange(n), np.zeros(n, dtype=np.int64))
    assert np.array_equal(state.assignment, np.where(has, 0, access.choices[access.offsets[:-1]]))


# ---------------------------------------------------------------------------
# Overflow boundaries: every narrowed or accumulated index straddling
# 2**15 and 2**31, with stub-sized inputs (nothing of the bound's size).
# ---------------------------------------------------------------------------


class TestOverflowBoundaries:
    @pytest.mark.parametrize(
        "counts,dtype",
        [([2**15 - 1, 1, 1], np.int16), ([2**31 - 2, 1, 1], np.int32)],
    )
    def test_csr_offsets_accumulate_in_int64(self, counts, dtype):
        offsets = csr_offsets(np.asarray(counts, dtype=dtype))
        assert offsets.dtype == np.int64
        assert offsets.tolist() == [0, counts[0], counts[0] + 1, counts[0] + 2]

    def test_resource_graph_offsets_are_csr(self):
        import networkx as nx

        graph = ResourceGraph(nx.star_graph(5), 6)
        assert graph.offsets.dtype == np.int64
        assert graph.offsets.tolist() == csr_offsets([5, 1, 1, 1, 1, 1]).tolist()

    @pytest.mark.parametrize(
        "n_users,m,key_dtype",
        [
            (2**7, 2**8, np.int16),  # n * m = 2**15: largest key 2**15 - 1
            (2**7, 2**8 + 1, np.int32),
            (2**15, 2**16, np.int32),  # n * m = 2**31: largest key 2**31 - 1
            (2**15, 2**16 + 1, np.int64),
        ],
    )
    def test_access_keys_at_the_boundary(self, n_users, m, key_dtype):
        # Every user may use only the last resource, so the flat keys
        # u * m + r reach n * m - 1, the largest the bound allows.
        choices = np.full(n_users, m - 1, dtype=np.int64)
        amap = AccessMap.from_csr(choices, np.arange(n_users + 1), m)
        assert amap._keys.dtype == key_dtype
        last = n_users - 1
        got = amap.contains(np.array([last, last, 0]), np.array([m - 1, m - 2, m - 1]))
        assert got.tolist() == [True, False, True]
        assert amap.contains_one(last, m - 1) and not amap.contains_one(last, m - 2)

    @pytest.mark.parametrize(
        "R,m,flat_dtype",
        [
            (2, 2**14, np.int16),  # R * m = 2**15
            (2, 2**14 + 1, np.int32),
            (2, 2**30, np.int32),  # R * m = 2**31
            (2, 2**30 + 1, np.int64),
        ],
    )
    def test_flat_assignment_at_the_boundary(self, R, m, flat_dtype):
        assignment = np.full((R, 1), m - 1, dtype=index_dtype(m))
        flat = _flat_assignment(assignment, m)
        assert flat.dtype == flat_dtype
        assert flat[:, 0].tolist() == [k * m + m - 1 for k in range(R)]

    @pytest.mark.parametrize(
        "n_probes,width",
        [(2**15 - 1, np.int16), (2**15, np.int32), (2**31 - 1, np.int32), (2**31, np.int64)],
    )
    def test_permit_ranks_hold_the_sentinel(self, n_probes, width):
        ranks = rank_dtype(n_probes)
        assert ranks == np.dtype(width)
        assert int(np.int64(n_probes).astype(ranks)) == n_probes

    def test_permit_ranks_cross_int16_bit_identically(self):
        """A permit round from the pile with about 2**15 + 1500 probes (a
        1/64 share of the 2**15 + 2048 users probe their own resource)
        runs on int32 ranks and matches the all-int64 layout exactly."""
        inst = build_instance("uniform_slack", n=2**15 + 2048, m=64, slack=0.25)

        def final():
            result = run(inst, PermitProtocol(), seed=3, initial="pile", max_rounds=2,
                         keep_state=True)
            return result.total_moves, result.final_state.assignment.astype(np.int64)

        narrow = final()
        with wide_dtypes():
            wide = final()
        assert narrow[0] > 2**14
        assert narrow[0] == wide[0] and np.array_equal(narrow[1], wide[1])


# ---------------------------------------------------------------------------
# Million-user smoke (stress: excluded from the blocking tier-1 job).
# ---------------------------------------------------------------------------


@pytest.mark.stress
@pytest.mark.parametrize("cell", HUGE_CELLS, ids=lambda cell: cell["name"])
def test_huge_cell_fits_memory_ceiling(cell):
    """One n = 10^6 replication completes, satisfies, and stays inside the
    pinned memory ceiling — the CI guardrail runs the same cells via
    ``python -m repro bench --only engine/huge``."""
    payload = _huge_cell(cell)
    assert payload["status"] == "satisfying"
    assert payload["within_ceiling"], (
        f"peak {payload['peak_traced_bytes']:,} B over ceiling "
        f"{payload['memory_ceiling_bytes']:,} B"
    )
