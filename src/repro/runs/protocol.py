"""Wire protocol for distributed sweeps (``runs-net/v1``).

One frame = one JSON object on one ``\\n``-terminated line — the same
framing every other durable artifact in this repo uses (journal, event
files, timeline), chosen here for the same reason: a torn frame is
detectable, skippable and never poisons the stream that follows.  The
conversation is strictly request/response, worker-initiated:

==============  ===============================================  =========================
worker sends    meaning                                          coordinator replies
==============  ===============================================  =========================
``register``    hello: schema, host, pid, package version        ``welcome`` (worker id,
                                                                 lease ttl, events
                                                                 flag, timeout)
``lease``       give me a cell                                   ``lease`` (cell + attempt
                                                                 + backoff delay) /
                                                                 ``wait`` / ``done``
``heartbeat``   still executing ``key``                          ``ack`` / ``expired``
``result``      ``runs-cell/v1`` payload (+ shipped events)      ``ack`` (``committed``,
                                                                 ``duplicate``)
``failed``      cell execution raised                            ``ack`` (``requeued``)
``bye``         clean sign-off                                   ``ack``, then close
==============  ===============================================  =========================

Anything unparseable earns an ``error`` reply and the connection keeps
going; EOF (a half-closed or killed peer) simply ends it — lease
recovery is the coordinator's job, not the protocol's.

Cells travel as their :meth:`~repro.runs.store.CellSpec.describe` dicts.
The JSON round trip turns tuples into lists, but :func:`cell_key` is
canonical-JSON based (tuples and lists serialize identically), so the
key a worker computes from the wire form always matches the key the
coordinator leased — pinned by ``tests/test_runs_net.py``.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO

from ..sim.parallel import RunSpec
from .store import CellSpec

__all__ = [
    "NET_SCHEMA",
    "MAX_FRAME_BYTES",
    "FrameError",
    "send_frame",
    "recv_frame",
    "cell_to_wire",
    "cell_from_wire",
]

#: Protocol schema identifier (frozen; see tests/test_runs_net.py).
NET_SCHEMA = "runs-net/v1"

#: Hard per-frame ceiling.  The largest legitimate frame is a ``result``
#: carrying a cell payload plus its thinned event file — megabytes at the
#: extreme; 64 MiB is far above any real frame and far below a hostile
#: memory bomb.
MAX_FRAME_BYTES = 64 * 2**20


class FrameError(ValueError):
    """A torn, oversized or non-object frame (the connection survives)."""


def send_frame(wfile: BinaryIO, message: dict[str, Any]) -> None:
    """Write one frame and flush (a frame is only sent whole)."""
    wfile.write((json.dumps(message, sort_keys=True, default=str) + "\n").encode())
    wfile.flush()


def recv_frame(rfile: BinaryIO) -> dict[str, Any] | None:
    """Read one frame; ``None`` on EOF, :class:`FrameError` on a bad one.

    A line without its trailing newline is a *torn* frame — the peer died
    mid-write (exactly the journal's torn-trailing-line case) — and is
    reported as :class:`FrameError` rather than parsed: a prefix of a
    JSON object can itself be valid JSON, and acting on half a message is
    worse than dropping it.
    """
    line = rfile.readline(MAX_FRAME_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_FRAME_BYTES:
        raise FrameError(f"frame exceeds {MAX_FRAME_BYTES} bytes")
    if not line.endswith(b"\n"):
        raise FrameError("torn frame (no trailing newline)")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FrameError(f"frame is not JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise FrameError(f"frame is not an object: {type(message).__name__}")
    return message


def cell_to_wire(cell: CellSpec) -> dict[str, Any]:
    """Serialize a cell for a ``lease`` frame (describe() + provenance id)."""
    return {**cell.describe(), "experiment_id": cell.experiment_id}


def cell_from_wire(data: dict[str, Any]) -> CellSpec:
    """Rebuild a :class:`CellSpec` from its wire form."""
    # describe() carries the frozen "instance_seed_key" literal, which is
    # key material but no longer a RunSpec field.
    spec = {k: v for k, v in data["spec"].items() if k != "instance_seed_key"}
    return CellSpec(
        spec=RunSpec(**spec),
        n_reps=int(data["n_reps"]),
        base_seed=int(data["base_seed"]),
        seed_key=data.get("seed_key"),
        experiment_id=str(data.get("experiment_id") or ""),
    )
