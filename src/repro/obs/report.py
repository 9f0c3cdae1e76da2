"""Summarize an ``obs-events/v1`` JSONL file (``repro-qoslb trace-report``).

The event file of an instrumented run is an append-only log; this module
folds it back into the questions an operator actually asks: *where did the
time go* (top spans by cumulative seconds), *what did the run spend* (final
counter totals), and *how did per-round message traffic distribute* (a
histogram over the engine's ``round`` events).

``repro-qoslb trace-report --top-functions`` additionally understands the
``.pstats`` files a ``sweep --profile`` leaves under ``profiles/``: one
file renders its own top-function table, a directory is folded into one
sweep-wide table first.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .aggregate import read_events

__all__ = ["summarize_events", "render_report", "profile_rows", "render_profiles"]


def summarize_events(path: str | Path) -> dict[str, Any]:
    """Parse one event file into an aggregate summary dict.

    Span and counter aggregates prefer the summary lines the hub writes on
    ``disable()``; when the file was cut short (crash, budget kill) they
    are rebuilt from the raw per-event records, so a truncated log still
    reports.  On a sweep timeline (:func:`~repro.obs.aggregate.merge_events`)
    the meta line is the timeline's own header, and the per-cell final
    ``counters`` and ``spans`` records (the ones carrying a ``cell`` key)
    are summed over the cells; a span's ``max`` is the largest cell max.
    Lines are framed by :func:`~repro.obs.aggregate.read_events`:
    a torn or non-object line is skipped and counted in ``bad_lines``, and
    a file that cannot be read raises :class:`OSError`.
    """
    path = Path(path)
    records, bad_lines = read_events(path)
    header: dict[str, Any] | None = None
    spans_final: dict[str, dict[str, float]] | None = None
    counters_final: dict[str, float] | None = None
    gauges_final: dict[str, float] = {}
    span_agg: dict[str, list[float]] = {}
    counter_seen = 0
    rounds: list[dict[str, Any]] = []
    for record in records:
        etype = record.get("type")
        if etype == "meta":
            if header is None:
                header = record
        elif etype == "span":
            stats = span_agg.setdefault(record["name"], [0, 0.0, 0.0])
            stats[0] += 1
            stats[1] += record["dur"]
            stats[2] = max(stats[2], record["dur"])
        elif etype == "round":
            rounds.append(record)
        elif etype == "counters":
            counters = record.get("counters", {})
            if "cell" in record and counters_final is not None:
                for name, value in counters.items():
                    counters_final[name] = counters_final.get(name, 0) + value
            else:
                counters_final = dict(counters)
            gauges_final = record.get("gauges", {})
            counter_seen += 1
        elif etype == "spans":
            spans = record.get("spans", {})
            if "cell" in record and spans_final is not None:
                for name, stats in spans.items():
                    acc = spans_final.setdefault(name, {"count": 0, "total": 0.0, "max": 0.0})
                    acc["count"] += stats["count"]
                    acc["total"] += stats["total"]
                    acc["max"] = max(acc["max"], stats["max"])
            else:
                spans_final = {name: dict(stats) for name, stats in spans.items()}
    if header is None:
        raise ValueError(f"{path}: no obs-events meta header (not an obs JSONL file?)")
    schema = header.get("schema")
    if schema != "obs-events/v1":
        raise ValueError(f"{path}: expected schema obs-events/v1, got {schema!r}")
    spans = spans_final if spans_final is not None else {
        name: {"count": int(c), "total": t, "max": mx}
        for name, (c, t, mx) in span_agg.items()
    }
    return {
        "path": str(path),
        "schema": schema,
        "provenance": header.get("provenance", {}),
        "meta": header.get("meta", {}),
        "n_events": len(records),
        "bad_lines": bad_lines,
        "complete": spans_final is not None and counter_seen > 0,
        "spans": spans,
        "counters": counters_final or {},
        "gauges": gauges_final,
        "rounds": rounds,
    }


def render_report(summary: dict[str, Any], *, top: int = 12) -> str:
    """Human-readable report of one summarized event file."""
    import numpy as np

    from ..analysis.tables import render_table
    from ..viz.ascii import histogram, sparkline

    prov = summary["provenance"]
    lines = [
        f"trace report — {summary['path']}",
        f"  schema {summary['schema']}, {summary['n_events']} events"
        + ("" if summary["complete"] else "  [truncated log: aggregates rebuilt]")
        + (f"  [{bad} unreadable line(s) skipped]" if (bad := summary["bad_lines"]) else ""),
        f"  git {str(prov.get('git_sha', 'unknown'))[:12]}  "
        f"repro {prov.get('package_version', '?')}  numpy {prov.get('numpy', '?')}  "
        f"python {prov.get('python', '?')}",
    ]
    if summary["meta"]:
        lines.append("  meta: " + json.dumps(summary["meta"], sort_keys=True, default=str))

    spans = sorted(summary["spans"].items(), key=lambda kv: -kv[1]["total"])
    if spans:
        rows = [
            [
                name,
                int(s["count"]),
                f"{s['total']:.4f}",
                f"{s['total'] / s['count']:.6f}" if s["count"] else "-",
                f"{s['max']:.6f}",
            ]
            for name, s in spans[:top]
        ]
        lines.append("")
        lines.append(
            render_table(
                ["span", "count", "total s", "mean s", "max s"],
                rows,
                title=f"top spans by time ({min(top, len(spans))} of {len(spans)})",
            )
        )

    if summary["counters"] or summary["gauges"]:
        rows = [
            [name, "counter", f"{value:,.6g}"]
            for name, value in sorted(summary["counters"].items())
        ] + [
            [name, "gauge", f"{value:,.6g}"]
            for name, value in sorted(summary["gauges"].items())
        ]
        lines.append("")
        lines.append(render_table(["name", "kind", "value"], rows, title="counter totals"))

    rounds = summary["rounds"]
    if rounds:
        messages = np.asarray([r.get("messages", 0) for r in rounds], dtype=np.float64)
        unsat = np.asarray([r.get("unsatisfied", np.nan) for r in rounds], dtype=np.float64)
        lines.append("")
        lines.append(
            f"rounds observed: {len(rounds)}; messages/round "
            f"min {messages.min():.0f} / mean {messages.mean():.1f} / max {messages.max():.0f}"
        )
        if np.isfinite(unsat).any():
            lines.append(f"unsatisfied trend: {sparkline(unsat, lo=0.0)}")
        if np.unique(messages).size > 1:
            lines.append(histogram(messages, bins=10, title="per-round message histogram"))
        else:
            lines.append(f"per-round messages constant at {messages[0]:.0f}")
    return "\n".join(lines)


def _pstats_files(path: str | Path) -> list[Path]:
    p = Path(path)
    if p.is_dir():
        # Accept a sweep directory or its profiles/ subdirectory directly.
        sub = p / "profiles"
        root = sub if sub.is_dir() else p
        return sorted(root.glob("*.pstats"))
    return [p]


def profile_rows(path: str | Path, *, top: int = 15) -> list[dict[str, Any]]:
    """Top functions by cumulative time across one or many ``.pstats`` files.

    A directory folds every per-cell profile of a sweep into one
    :class:`pstats.Stats`, so the rows answer "where did the *sweep*
    spend its CPU", not just one cell.  Rows carry ``ncalls``,
    ``tottime`` (own), ``cumtime`` (with callees) and the
    ``file:line(function)`` location.
    """
    import pstats

    files = _pstats_files(path)
    if not files:
        raise FileNotFoundError(f"{path}: no .pstats files")
    stats = pstats.Stats(str(files[0]))
    for extra in files[1:]:
        stats.add(str(extra))
    rows: list[dict[str, Any]] = []
    for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in stats.stats.items():
        rows.append(
            {
                "function": funcname,
                "location": f"{Path(filename).name}:{lineno}",
                "ncalls": int(nc),
                "tottime": float(tt),
                "cumtime": float(ct),
            }
        )
    rows.sort(key=lambda r: -r["cumtime"])
    return rows[:top]


def render_profiles(path: str | Path, *, top: int = 15) -> str:
    """ASCII table of :func:`profile_rows` (``--top-functions`` view)."""
    from ..analysis.tables import render_table

    files = _pstats_files(path)
    rows = profile_rows(path, top=top)
    table_rows = [
        [
            r["function"],
            r["location"],
            f"{r['ncalls']:,}",
            f"{r['tottime']:.4f}",
            f"{r['cumtime']:.4f}",
        ]
        for r in rows
    ]
    title = f"top functions by cumulative time — {len(files)} profile(s) from {path}"
    return render_table(
        ["function", "location", "ncalls", "tottime s", "cumtime s"],
        table_rows,
        title=title,
    )
