"""``repro.runs`` — durable, resumable, parallel sweep orchestration.

The experiment suite decomposes into independent *cells* (one replicated
:class:`~repro.sim.parallel.RunSpec` each).  This package runs them as a
production sweep system:

- :mod:`repro.runs.store` — content-addressed result cache
  (``runs-cell/v1`` payloads keyed by a stable spec hash);
- :mod:`repro.runs.journal` — append-only sweep journal
  (``runs-journal/v1``, truncation-tolerant reader);
- :mod:`repro.runs.scheduler` — the one cell queue (cache first,
  longest-expected-first leases, bounded retry with backoff) and its
  local transport, a process pool with per-cell timeouts;
- :mod:`repro.runs.sweep` — ``repro-qoslb sweep`` / ``--resume`` /
  ``runs status`` / ``runs gc`` orchestration on top;
- :mod:`repro.runs.watch` — live terminal dashboard over a sweep's
  journal and per-cell event files (``repro-qoslb runs watch``);
- :mod:`repro.runs.protocol` / :mod:`repro.runs.net` — the queue's
  network transport: the line-framed ``runs-net/v1`` TCP protocol, the
  lease-based coordinator (``repro-qoslb sweep --serve``) and the remote
  worker (``repro-qoslb runs worker --connect``).

See ``docs/RUNS.md`` for the store layout, schemas and failure policy.
"""

from .journal import JOURNAL_SCHEMA, Journal, read_journal
from .net import (
    DEFAULT_LEASE_TTL_S,
    WORKERS_SCHEMA,
    Coordinator,
    read_workers,
    run_worker,
    serve_sweep,
)
from .protocol import (
    MAX_FRAME_BYTES,
    NET_SCHEMA,
    FrameError,
    cell_from_wire,
    cell_to_wire,
    recv_frame,
    send_frame,
)
from .scheduler import (
    CellQueue,
    DEFAULT_RETRIES,
    DEFAULT_TIMEOUT,
    CellTimeout,
    backoff_delay,
    execute_cell,
    run_cells,
)
from .store import (
    CELL_SCHEMA,
    TELEMETRY_FIELDS,
    CellSpec,
    MissingCellError,
    ResultStore,
    active_store,
    build_payload,
    cell_key,
    render_only_active,
    results_from_payload,
    use_store,
)
from .sweep import (
    enumerate_sweep,
    render_status,
    resume_sweep,
    run_sweep,
    sweep_status,
    sweepable_experiments,
)
from .watch import (
    render_watch,
    render_workers,
    sweep_snapshot,
    watch,
    workers_roster,
)

__all__ = [
    "CELL_SCHEMA",
    "JOURNAL_SCHEMA",
    "MAX_FRAME_BYTES",
    "NET_SCHEMA",
    "TELEMETRY_FIELDS",
    "WORKERS_SCHEMA",
    "CellQueue",
    "CellSpec",
    "CellTimeout",
    "Coordinator",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_RETRIES",
    "DEFAULT_TIMEOUT",
    "FrameError",
    "Journal",
    "MissingCellError",
    "ResultStore",
    "active_store",
    "backoff_delay",
    "build_payload",
    "cell_from_wire",
    "cell_key",
    "cell_to_wire",
    "enumerate_sweep",
    "execute_cell",
    "read_journal",
    "read_workers",
    "recv_frame",
    "render_only_active",
    "render_status",
    "render_watch",
    "render_workers",
    "results_from_payload",
    "resume_sweep",
    "run_cells",
    "run_sweep",
    "run_worker",
    "send_frame",
    "serve_sweep",
    "sweep_snapshot",
    "sweep_status",
    "sweepable_experiments",
    "use_store",
    "watch",
    "workers_roster",
]
