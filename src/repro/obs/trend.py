"""Trend renderer over a series of ``BENCH_engine.json`` artifacts.

The benchmark harness writes one ``bench-engine/v2`` file per run (CI
uploads them as artifacts); this module turns a *directory or list* of
those files into a per-cell trend table.  Every cell declares its own
``headline`` field, ``unit`` and ``higher_is_better`` direction, so the
table follows whatever each cell says matters — rounds/sec, a speedup,
a memory peak — with no table of cell kinds here.  Cells that carry
process counters (:data:`COUNTERS`, the batched cells' page faults and
system time) get a second table of their first and last values; the
gate ignores them.  Rendering is pure ASCII (:mod:`repro.viz.ascii`),
usable in CI logs and terminals alike.

CLI: ``repro-qoslb trend [paths...]`` (defaults to ``BENCH_engine*.json``
in the current directory).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Iterable

__all__ = ["BENCH_SCHEMA", "load_bench_artifacts", "trend_rows", "render_trend"]

#: Bench payload schema identifier (frozen; see tests/test_obs.py).
BENCH_SCHEMA = "bench-engine/v2"

#: Process counters a cell may carry beside its headline, with their
#: printed formats: the trend prints them, the gate never reads them.
COUNTERS = {"minor_faults": "{:,.0f}", "sys_s": "{:.2f}"}


def load_bench_artifacts(paths: Iterable[str | Path]) -> list[dict[str, Any]]:
    """Load and chronologically sort ``bench-engine/v2`` payloads.

    Files with a different ``schema`` raise — mixing incompatible formats
    into one trend silently would be worse than failing loudly.
    """
    payloads = []
    for p in paths:
        payload = json.loads(Path(p).read_text())
        schema = payload.get("schema")
        if schema != BENCH_SCHEMA:
            raise ValueError(
                f"{p}: expected schema {BENCH_SCHEMA}, got {schema!r}; "
                "regenerate it with `repro-qoslb bench`"
            )
        payload["_path"] = str(p)
        payloads.append(payload)
    if not payloads:
        raise ValueError("no bench artifacts to render")
    payloads.sort(key=lambda p: p.get("created_unix", 0.0))
    return payloads


def trend_rows(payloads: list[dict[str, Any]]) -> list[dict[str, Any]]:
    """One row per cell name: its headline series across the artifacts.

    Metric, unit and direction come from the cell itself, as declared in
    the newest artifact that has it.  A cell absent from an artifact
    contributes NaN at that position, so sparklines stay aligned with the
    series.
    """
    by_name, newest = _cells_by_name(payloads)
    return [
        {
            "name": name,
            "kind": cell.get("kind"),
            "metric": cell["headline"],
            "unit": cell["unit"],
            "higher_is_better": bool(cell["higher_is_better"]),
            "series": _series(by_name, name, cell["headline"]),
        }
        for name, cell in newest.items()
    ]


def _cells_by_name(payloads):
    """Per artifact, its cells by name; and every cell name in first-seen
    order with its newest declaration."""
    by_name = [{c["name"]: c for c in payload.get("cells") or []} for payload in payloads]
    newest: dict[str, dict[str, Any]] = {}
    for cells in by_name:
        newest.update(cells)
    return by_name, newest


def _series(by_name, name: str, field: str) -> list[float]:
    """``field`` of cell ``name`` across the artifacts, NaN where absent."""
    series: list[float] = []
    for cells in by_name:
        value = cells[name].get(field) if name in cells else None
        try:
            series.append(float("nan") if value is None else float(value))
        except (TypeError, ValueError):
            series.append(float("nan"))
    return series


def _first_last(series: list[float], fmt: str) -> str:
    import math

    finite = [v for v in series if math.isfinite(v)]
    return f"{fmt.format(finite[0])} → {fmt.format(finite[-1])}" if finite else "-"


def _fmt(value: float) -> str:
    import math

    if not math.isfinite(value):
        return "-"
    return f"{value:,.2f}" if abs(value) < 100 else f"{value:,.0f}"


def render_trend(paths: Iterable[str | Path]) -> str:
    """The full trend table for a series of bench artifacts."""
    import math

    import numpy as np

    from ..analysis.tables import render_table
    from ..viz.ascii import sparkline

    payloads = load_bench_artifacts(paths)
    rows = []
    for entry in trend_rows(payloads):
        series = np.asarray(entry["series"], dtype=np.float64)
        finite = series[np.isfinite(series)]
        first = float(finite[0]) if finite.size else float("nan")
        last = float(finite[-1]) if finite.size else float("nan")
        if finite.size >= 2 and first and math.isfinite(first) and math.isfinite(last):
            delta = f"{100.0 * (last - first) / abs(first):+.1f}%"
        else:
            delta = "-"
        rows.append(
            [
                entry["name"],
                entry["unit"],
                # "·" marks a hole — the cell is absent from that artifact
                # (hole-punched history, older harness revision).
                sparkline(series, gap="·") if series.size else "",
                _fmt(first),
                _fmt(last),
                delta,
            ]
        )
    stamps = [p.get("created_unix", 0.0) for p in payloads]
    span_days = (max(stamps) - min(stamps)) / 86_400.0 if len(stamps) > 1 else 0.0
    title = (
        f"bench trend — {len(payloads)} artifact(s)"
        + (f" spanning {span_days:.1f} days" if span_days and math.isfinite(span_days) else "")
        + f", scale(s) {sorted({p.get('scale', '?') for p in payloads})}"
    )
    table = render_table(
        ["cell", "metric", "trend (old→new)", "first", "last", "Δ"], rows, title=title
    )
    by_name, newest = _cells_by_name(payloads)
    counted = [
        [name, *(_first_last(_series(by_name, name, c), f) for c, f in COUNTERS.items())]
        for name, cell in newest.items()
        if any(c in cell for c in COUNTERS)
    ]
    if counted:
        table += "\n" + render_table(
            ["cell", "minor faults (first → last)", "sys s (first → last)"], counted,
            title="process counters (not gated)",
        )
    files = "\n".join(f"  [{i}] {p['_path']}" for i, p in enumerate(payloads))
    return table + "\nartifacts (chronological):\n" + files
