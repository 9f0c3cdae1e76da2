"""Process-local telemetry hub: spans, counters, gauges, and an event sink.

The simulation layers (engine, replicated sweeps, message simulator, state
cache) report *where time and messages go* through one module-level
:data:`HUB`.  Everything is opt-in and process-local:

- **disabled** (the default) the hub is a no-op.  The contract for hot
  paths is that call sites guard on ``HUB.active`` — one attribute load
  and a branch, no argument packing, no dict allocation — and
  :meth:`TelemetryHub.span` returns a shared null context manager;
- **enabled** the hub keeps counters/gauges and per-span aggregates in
  plain dicts, a bounded in-memory ring buffer of recent events, and
  (optionally) appends every event to a JSONL file in the ``obs-events/v1``
  schema, NumPy values coerced to JSON-native ones by :func:`_jsonable`.

``obs-events/v1``: one JSON object per line, every line carrying ``type``
(event kind) and ``t`` (wall-clock Unix time).  The first line is always
``{"type": "meta", "schema": "obs-events/v1", "provenance": {...},
"meta": {...}}``; :meth:`TelemetryHub.disable` appends final ``counters``
and ``spans`` summary lines before closing.  The overhead budget —
enabled telemetry costs at most 5% engine throughput, disabled at most
measurement noise — is enforced by the ``obs/overhead`` benchmark cell.

The hub is deliberately not thread-safe: the simulators are single-threaded
per process (parallelism is process-based), and worker processes simply
inherit a disabled hub unless their task enables one.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO

import numpy as np

from .provenance import provenance_stamp

__all__ = ["TelemetryHub", "HUB", "OBS_EVENTS_SCHEMA"]

#: Event-file schema identifier (frozen; see tests/test_obs.py).
OBS_EVENTS_SCHEMA = "obs-events/v1"

#: Wall-clock throttles for the engine's liveness events (see
#: :meth:`TelemetryHub.every`): a ``cell.heartbeat`` at most once per
#: second keeps ``runs watch`` heartbeat ages meaningful without flooding
#: the sink; ``cell.progress`` carries the heavier workload snapshot at a
#: coarser cadence.  The first occurrence of each always fires, so even a
#: sub-millisecond run ships one heartbeat and one progress record.
HEARTBEAT_INTERVAL_S = 1.0
PROGRESS_INTERVAL_S = 5.0


def _jsonable(obj: Any) -> Any:
    """Recursively coerce NumPy scalars/arrays into JSON-native values.

    The one coercion behind every JSON artifact: event files, journals and
    cell-store payloads.
    """
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# Bound once: module-attribute lookups cost real time on per-round paths.
_perf_counter = time.perf_counter
_wall_time = time.time


class _NullSpan:
    """Shared do-nothing context manager handed out while disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object = None, exc: object = None, tb: object = None) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """One live nested timer; records aggregates and emits a span event.

    Aggregates (``span_stats``) are updated on every exit; individual
    ``span`` *events* are emitted only for top-level spans (depth 0).
    Nested spans fire once per round on the hot path, and emitting an
    event per round would alone eat most of the 5% overhead budget —
    their timing survives in the aggregates and the final ``spans``
    summary line.
    """

    __slots__ = ("_hub", "name", "_started")

    def __init__(self, hub: "TelemetryHub", name: str):
        self._hub = hub
        self.name = name
        self._started = 0.0

    def __enter__(self) -> "_Span":
        self._hub._stack.append(self.name)
        self._started = _perf_counter()
        return self

    def __exit__(self, exc_type: object = None, exc: object = None, tb: object = None) -> bool:
        dur = _perf_counter() - self._started
        hub = self._hub
        stack = hub._stack
        stack.pop()
        if hub.active:  # disable() inside the span drops the record
            stats = hub.span_stats.get(self.name)
            if stats is None:
                hub.span_stats[self.name] = [1, dur, dur]
            else:
                stats[0] += 1
                stats[1] += dur
                if dur > stats[2]:
                    stats[2] = dur
            if not stack:
                hub.event("span", {"name": self.name, "dur": dur, "depth": 0})
        return False


class TelemetryHub:
    """Spans + counters + gauges + ring buffer + optional JSONL sink."""

    __slots__ = (
        "active",
        "counters",
        "gauges",
        "span_stats",
        "ring",
        "sample_rate",
        "_ticks",
        "_last_emit",
        "_stack",
        "_sink",
        "_sink_path",
    )

    def __init__(self) -> None:
        self.active: bool = False
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: span name -> [count, total seconds, max seconds]
        self.span_stats: dict[str, list[float]] = {}
        self.ring: deque[dict] = deque(maxlen=4096)
        #: Emit every ``sample_rate``-th high-frequency event (1 = all).
        self.sample_rate: int = 1
        self._ticks: dict[str, int] = {}
        self._last_emit: dict[str, float] = {}
        self._stack: list[str] = []
        self._sink: TextIO | None = None
        self._sink_path: Path | None = None

    # -- lifecycle ---------------------------------------------------------------

    def enable(
        self,
        jsonl_path: str | Path | None = None,
        *,
        ring_size: int = 4096,
        sample_rate: int = 1,
        **meta: Any,
    ) -> None:
        """Start collecting; previous counters/events are discarded.

        ``jsonl_path`` opens an append-never truncate-always event file
        (one run per file by convention); without it events only land in
        the in-memory ring buffer.  ``meta`` keys are recorded in the
        header line next to the provenance stamp.

        ``sample_rate`` thins *high-frequency* events: call sites that
        guard with :meth:`tick` emit only every ``sample_rate``-th
        occurrence (deterministic counter, no randomness on the hot
        path).  Spans, counters and low-frequency events are unaffected.
        """
        if self.active:
            raise RuntimeError("telemetry hub is already enabled")
        if sample_rate < 1:
            raise ValueError("sample_rate must be >= 1")
        self.counters = {}
        self.gauges = {}
        self.span_stats = {}
        self.ring = deque(maxlen=int(ring_size))
        self.sample_rate = int(sample_rate)
        self._ticks = {}
        self._last_emit = {}
        self._stack = []
        if jsonl_path is not None:
            path = Path(jsonl_path)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._sink = path.open("w")
            self._sink_path = path
        self.active = True
        self.event(
            "meta",
            {
                "schema": OBS_EVENTS_SCHEMA,
                "provenance": provenance_stamp(),
                "sample_rate": self.sample_rate,
                "meta": dict(meta),
            },
        )

    def disable(self) -> Path | None:
        """Stop collecting; flush summary lines and close the sink.

        Returns the event-file path (None when ring-buffer only).  The
        in-memory counters/span aggregates survive until the next
        :meth:`enable`, so callers can still read them after a run.
        """
        if not self.active:
            return None
        self.event("counters", {"counters": dict(self.counters), "gauges": dict(self.gauges)})
        self.event(
            "spans",
            {
                "spans": {
                    name: {"count": int(c), "total": t, "max": mx}
                    for name, (c, t, mx) in self.span_stats.items()
                }
            },
        )
        path = self._sink_path
        if self._sink is not None:
            self._sink.close()
        self._sink = None
        self._sink_path = None
        self.active = False
        return path

    @contextmanager
    def enabled(
        self, jsonl_path: str | Path | None = None, **kwargs: Any
    ) -> Iterator["TelemetryHub"]:
        """``with HUB.enabled("run.jsonl"):`` — enable/disable bracketing."""
        self.enable(jsonl_path, **kwargs)
        try:
            yield self
        finally:
            self.disable()

    # -- recording ---------------------------------------------------------------

    def span(self, name: str):
        """Nested wall-clock timer; a shared no-op while disabled."""
        if not self.active:
            return _NULL_SPAN
        return _Span(self, name)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a monotonically accumulating counter."""
        if not self.active:
            return
        self.counters[name] = self.counters.get(name, 0) + value

    def tick(self, name: str) -> bool:
        """Deterministic sampler for high-frequency events.

        Returns True on every ``sample_rate``-th call per ``name`` (and
        always on the first), so per-round events thin uniformly without
        touching any RNG.  Hot paths guard with
        ``if HUB.active and HUB.tick("round"):`` — with the default
        ``sample_rate=1`` this short-circuits to the old behaviour at the
        cost of one extra comparison.
        """
        rate = self.sample_rate
        if rate <= 1:
            return True
        seen = self._ticks.get(name, 0)
        self._ticks[name] = seen + 1
        return seen % rate == 0

    def every(self, name: str, interval: float) -> bool:
        """Wall-clock throttle for periodic events (heartbeats, progress).

        Returns True on the first call per ``name`` after :meth:`enable`
        and then at most once per ``interval`` seconds, so liveness
        signals stay cheap regardless of round rate: short runs still
        emit at least one, long runs emit a bounded stream.  Hot paths
        guard with ``if HUB.active and HUB.every("cell.heartbeat", 1.0):``.
        """
        if not self.active:
            return False
        now = _perf_counter()
        last = self._last_emit.get(name)
        if last is not None and now - last < interval:
            return False
        self._last_emit[name] = now
        return True

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a point-in-time measurement."""
        if not self.active:
            return
        self.gauges[name] = float(value)

    def event(self, etype: str, payload: dict[str, Any]) -> None:
        """Append one event to the ring buffer and the JSONL sink.

        Hot paths must guard on :attr:`active` *before* building
        ``payload`` so the disabled hub allocates nothing.  The hub takes
        ownership of ``payload`` (it is annotated in place, not copied) —
        pass a fresh dict, never one you keep mutating.
        """
        if not self.active:
            return
        record = payload
        record["type"] = etype
        record["t"] = _wall_time()
        self.ring.append(record)
        if self._sink is not None:
            self._sink.write(json.dumps(_jsonable(record), sort_keys=True) + "\n")
            # Flush per record: live readers (``runs watch``) and crash
            # post-mortems must see whole lines, and a forked child must
            # never inherit half of this process's write buffer.  Events
            # are already sampled/throttled on hot paths, so the flush is
            # rare relative to rounds and stays inside the overhead budget.
            self._sink.flush()


#: The process-global hub every instrumented layer reports to.
HUB = TelemetryHub()


def _neutralize_after_fork() -> None:
    """Disarm an inherited hub in a freshly forked child process.

    A ``fork``-started worker inherits the parent's hub *enabled*, holding
    the parent's open JSONL sink — anything the child then logged would
    interleave with (and corrupt) the parent's event file, and the child's
    eventual ``disable()`` would append a second counters/spans summary.
    The child therefore starts dark: the inherited sink is closed (safe —
    the single-threaded parent flushes per record, so the copied buffer
    is empty and the close appends nothing) and the hub returns to the
    disabled state, free to be enabled on the worker's own per-cell
    file.  ``spawn``-started workers get a fresh interpreter and need no
    help.
    """
    sink = HUB._sink
    HUB._sink = None
    HUB._sink_path = None
    HUB.active = False
    HUB._stack = []
    if sink is not None:
        try:
            sink.close()
        except OSError:  # pragma: no cover - already closed
            pass


if hasattr(os, "register_at_fork"):  # POSIX; never fires on spawn
    os.register_at_fork(after_in_child=_neutralize_after_fork)
