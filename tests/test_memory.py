"""The memory/dtype contract: narrowing, chunking, CSR access maps.

Companion to the wide-vs-narrow grid in ``tests/test_batch.py``: that
grid proves whole trajectories are dtype-invariant; this module pins the
contract pieces individually — :func:`index_dtype` boundaries, chunk
iteration semantics, the CSR-first ``AccessMap`` construction paths and
their validation errors — plus the million-user smoke cell (stress).
"""

import numpy as np
import pytest

from repro.core.instance import AccessMap, Instance
from repro.core.memory import (
    index_dtype,
    iter_chunks,
    set_user_chunk,
    user_chunk,
    wide_dtypes,
)
from repro.core.protocols import QoSSamplingProtocol
from repro.registry import build_instance
from repro.sim.batch import run_batch
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

    def test_runs_to_satisfaction(self):
        inst = build_instance("sparse_access", n=64, m=8, degree=3, slack=0.4, rng=1)
        result = run(inst, QoSSamplingProtocol(), seed=2, initial="pile", max_rounds=2000)
        assert result.status == "satisfying"


# ---------------------------------------------------------------------------
# Million-user smoke (stress: excluded from the blocking tier-1 job).
# ---------------------------------------------------------------------------


@pytest.mark.stress
def test_huge_cell_fits_memory_ceiling():
    """One n = 10^6 replication completes, satisfies, and stays inside the
    pinned memory ceiling — the CI guardrail runs this same cell via
    ``python -m repro bench --only engine/huge``."""
    from repro.bench import HUGE_CELLS, _huge_cell

    payload = _huge_cell(HUGE_CELLS[0])
    assert payload["status"] == "satisfying"
    assert payload["within_ceiling"], (
        f"peak {payload['peak_traced_bytes']:,} B over ceiling "
        f"{payload['memory_ceiling_bytes']:,} B"
    )
