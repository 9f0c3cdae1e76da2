"""Memory/dtype contract: narrowed index dtypes and user-axis chunking.

The million-user engine (ROADMAP: one replication at n = 10^6-10^7) is
memory-bound before it is compute-bound: at n = 10^7 every ``int64``
per-user array costs 80 MB and every ``float64`` round temporary another
80 MB, so the difference between "streams through cache" and "thrashes
RAM" is (a) how wide the index arrays are and (b) how many full-width
temporaries a round materialises.  This module is the single source of
truth for both knobs:

Dtype narrowing
---------------

:func:`index_dtype` maps a known exclusive value bound to the narrowest
signed integer dtype that provably holds it — ``int16`` below ``2**15``,
``int32`` below ``2**31``, else ``int64``.  Integer values are exact in
every width that holds them, so narrowing can never change a trajectory;
the differential grids in ``tests/test_batch.py`` and
``tests/test_memory.py`` pin this by running the same streams wide and
narrow.  The contract for call sites:

- ``State.assignment`` holds resource indices — bound ``n_resources``;
- ``AccessMap.choices`` holds resource indices — bound ``n_resources``;
- ``AccessMap`` flat membership keys hold ``u * m + r`` — bound
  ``n_users * n_resources``;
- the batched engine's flat assignment holds ``row * m + r`` — bound
  ``R * n_resources``.

Float arrays (loads, thresholds, weights, latencies) stay ``float64``:
narrowing them would change IEEE arithmetic and break bit-exact replay.
A uniform per-user float column (every threshold equal, or every weight)
is stored once instead: :class:`~repro.core.instance.Instance` keeps it
as a read-only zero-stride ``float64`` view (``np.broadcast_to``) of its
one value, still shape ``(n,)``, so IEEE arithmetic is untouched and the
column costs 8 bytes rather than 8n.  Such a column must not reach
``take``, ``tile`` or a weighted ``bincount``, which copy a
non-contiguous input out whole; unit-weight loads are an integer
count cast to ``float64`` (:func:`repro.core.state.loads_of`), the same
values exactly.
RNG draws are never narrowed either — NumPy's generators fix their own
output dtypes and the stream contract pins the draw sequence.

:func:`wide_dtypes` is the differential-testing hook (same shape as
:func:`repro.core.state.caching_disabled`): inside the context every
:func:`index_dtype` call answers ``int64``, the pre-audit behaviour, so
tests can prove wide and narrow runs are bit-identical.

User-axis chunking
------------------

:func:`iter_chunks` yields ``(start, stop)`` spans of at most
:func:`user_chunk` elements.  Hot-path kernels that would otherwise build
several full-width temporaries (the kernels' probe math in
:mod:`repro.core.protocols.kernels`, the contention bincount) loop over
these spans, writing into preallocated outputs so per-round scratch is
bounded by the chunk size regardless of ``n``.  Only *elementwise* work may be chunked — anything
with cross-element reductions in float (weighted bincounts, sums) must
stay whole, because re-associating float additions is not bit-exact.
Within that rule, chunking is trajectory-neutral by construction and the
differential grids would catch any violation.

The default span is 2**18 elements (~2 MB of float64 scratch per
temporary — comfortably inside L2/L3 on anything the benches run on);
:func:`set_user_chunk` overrides it.

The lockstep engine bounds its rounds one level up, in *mover groups*:
:mod:`repro.sim.batch` hands a round's movers to the kernel in groups of
whole live rows holding at most ``MOVER_CHUNK = 2**16`` movers, not in one
call over all ``R * n`` users.  A row is never split, so its draws stay
whole and in stream order, and every group reads the round-start state,
so the grouping is trajectory-neutral too.  The bound is 2**16 and not
:func:`user_chunk` because the cost it removes is allocator churn, not
cache misses: per-mover temporaries of 2**18 float64 elements are
released to the OS and faulted back in every round.  One pass of the
end-to-end ``replicate`` workload's seven calls (32 reps at n = 16384,
2-core host) took ~380 k minor page faults with 2**18-mover groups and
5–17 k with 2**16.
The scalar engine's rounds are one row and are not grouped.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

import numpy as np

__all__ = [
    "csr_offsets",
    "index_dtype",
    "wide_dtypes",
    "user_chunk",
    "set_user_chunk",
    "iter_chunks",
]


class _DtypeSwitch:
    """Process-global wide-dtype toggle (differential testing hook)."""

    __slots__ = ("wide",)

    def __init__(self):
        self.wide = False


_DTYPES = _DtypeSwitch()


def index_dtype(bound: int) -> np.dtype:
    """Narrowest signed integer dtype holding every value in ``[0, bound)``.

    ``bound`` is *exclusive*: pass ``n_resources`` for resource indices,
    ``n_users * n_resources`` for flat membership keys.  Inside
    :func:`wide_dtypes` this always answers ``int64`` so differential
    tests can reproduce the pre-audit layout.
    """
    if bound < 0:
        raise ValueError("bound must be non-negative")
    if _DTYPES.wide:
        return np.dtype(np.int64)
    if bound <= 2**15:
        return np.dtype(np.int16)
    if bound <= 2**31:
        return np.dtype(np.int32)
    return np.dtype(np.int64)


def csr_offsets(counts) -> np.ndarray:
    """CSR offsets of per-row ``counts``: ``[0, c0, c0 + c1, ...]`` in int64.

    The offsets index a flat array whose length can pass ``2**31`` while
    every single count stays small, so they are accumulated in int64 and
    never narrowed, whatever the width of ``counts``.
    """
    counts = np.asarray(counts)
    offsets = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, dtype=np.int64, out=offsets[1:])
    return offsets


@contextmanager
def wide_dtypes():
    """Temporarily answer ``int64`` from every :func:`index_dtype` call.

    The reference behaviour the dtype-audit differential tests compare
    against: a run constructed inside this context uses the pre-narrowing
    array layout everywhere.
    """
    previous = _DTYPES.wide
    _DTYPES.wide = True
    try:
        yield
    finally:
        _DTYPES.wide = previous


class _ChunkConfig:
    """The user-axis chunk span (elements); :func:`set_user_chunk` sets it."""

    __slots__ = ("size",)

    def __init__(self):
        self.size = 1 << 18


_CHUNK = _ChunkConfig()


def user_chunk() -> int:
    """Current user-axis chunk span (elements per kernel block)."""
    return _CHUNK.size


def set_user_chunk(size: int) -> int:
    """Set the user-axis chunk span; returns the previous value.

    Mostly a test/bench knob — tiny sizes force many blocks so chunked
    kernels are exercised on small instances.
    """
    if size < 1:
        raise ValueError("chunk size must be >= 1")
    previous = _CHUNK.size
    _CHUNK.size = int(size)
    return previous


def iter_chunks(total: int) -> Iterator[tuple[int, int]]:
    """Yield ``(start, stop)`` spans of at most :func:`user_chunk` elements."""
    span = _CHUNK.size
    if total <= span:  # common case: one span, no loop arithmetic
        if total > 0:
            yield 0, total
        return
    for start in range(0, total, span):
        yield start, min(start + span, total)
