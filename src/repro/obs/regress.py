"""Statistical perf-regression gate over bench artifact history.

``repro-qoslb bench --out DIR`` accumulates dated ``bench-engine/v2``
artifacts; :func:`gate` splits such a series into *baseline* (every
artifact but the newest) and *candidate* (the newest) and asks, per
bench cell, whether the candidate's headline metric moved outside the
noise band of the baseline:

- the band is ``max(band, 3 * relative std of the baseline series)`` —
  a cell whose history is noisy earns a wider band than the floor
  (default 10%), so repeat variance does not page anyone;
- metric and direction come from the cell payload: each cell names its
  ``headline`` field and declares ``higher_is_better`` (throughputs and
  speedups regress downward, a memory peak regresses upward);
- verdicts are ``ok`` / ``regressed`` / ``improved`` / ``no-baseline``
  (nothing to compare against: new cell, all-NaN history, or a zero
  center that admits no ratio) / ``no-data`` (the candidate itself lacks
  the cell).

The result is the machine-readable ``bench-gate/v1`` dict that
``repro-qoslb trend --gate`` prints as JSON; the overall verdict is
``regressed`` iff any cell regressed.  Missing cells, NaNs and zero
throughputs are inputs, not crashes — history directories with holes
gate fine.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Iterable

from .trend import load_bench_artifacts, trend_rows

__all__ = ["GATE_SCHEMA", "DEFAULT_BAND", "gate_cells", "gate", "render_gate"]

#: Gate-verdict schema identifier (frozen; see tests/test_obs.py).
GATE_SCHEMA = "bench-gate/v1"

#: Noise-band floor: a cell must move more than this fraction (or 3x its
#: own baseline variability, whichever is wider) to change verdict.
DEFAULT_BAND = 0.10


def _median(values: list[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def _rel_std(values: list[float], center: float) -> float:
    if len(values) < 2 or not center:
        return 0.0
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var) / abs(center)


def gate_cells(
    payloads: list[dict[str, Any]], *, band: float = DEFAULT_BAND
) -> list[dict[str, Any]]:
    """Per-cell verdicts for a chronologically sorted artifact series.

    The newest payload is the candidate; everything earlier is baseline.
    Needs at least two payloads — with fewer, every cell is
    ``no-baseline`` (the verdict, not an exception).
    """
    verdicts: list[dict[str, Any]] = []
    for row in trend_rows(payloads):
        series = row["series"]
        candidate = series[-1]
        baseline = [v for v in series[:-1] if math.isfinite(v)]
        verdict: dict[str, Any] = {
            "name": row["name"],
            "kind": row["kind"],
            "metric": row["metric"],
            "unit": row["unit"],
            "higher_is_better": row["higher_is_better"],
            "candidate": candidate if math.isfinite(candidate) else None,
            "baseline_n": len(baseline),
            "center": None,
            "band": None,
            "ratio": None,
            "verdict": "ok",
        }
        if not math.isfinite(candidate):
            verdict["verdict"] = "no-data"
            verdicts.append(verdict)
            continue
        if not baseline:
            verdict["verdict"] = "no-baseline"
            verdicts.append(verdict)
            continue
        center = _median(baseline)
        if center == 0.0:
            # A zero-throughput baseline admits no ratio; flag rather
            # than divide.
            verdict["center"] = 0.0
            verdict["verdict"] = "no-baseline"
            verdicts.append(verdict)
            continue
        band_eff = max(float(band), 3.0 * _rel_std(baseline, center))
        # ratio > 1 is always better: invert lower-is-better headlines.
        if row["higher_is_better"]:
            ratio = candidate / center
        else:
            ratio = center / candidate if candidate else float("inf")
        if ratio < 1.0 - band_eff:
            verdict["verdict"] = "regressed"
        elif ratio > 1.0 + band_eff:
            verdict["verdict"] = "improved"
        verdict.update(center=center, band=band_eff, ratio=ratio)
        verdicts.append(verdict)
    return verdicts


def gate(
    paths: Iterable[str | Path], *, band: float = DEFAULT_BAND
) -> dict[str, Any]:
    """The full ``bench-gate/v1`` verdict for a series of artifact paths.

    ``paths`` are loaded and ordered chronologically exactly like the
    trend table, so ``trend <dir> --gate`` and ``trend <dir>`` agree on
    which artifact is newest.
    """
    payloads = load_bench_artifacts(paths)
    cells = gate_cells(payloads, band=band)
    regressed = [c["name"] for c in cells if c["verdict"] == "regressed"]
    improved = [c["name"] for c in cells if c["verdict"] == "improved"]
    return {
        "schema": GATE_SCHEMA,
        "band_floor": float(band),
        "artifacts": [p["_path"] for p in payloads],
        "candidate": payloads[-1]["_path"],
        "cells": cells,
        "regressed": regressed,
        "improved": improved,
        "verdict": "regressed" if regressed else "ok",
    }


def render_gate(result: dict[str, Any]) -> str:
    """Human-readable companion to the JSON verdict."""
    from ..analysis.tables import render_table

    rows = []
    for cell in result["cells"]:
        rows.append(
            [
                cell["name"],
                cell["metric"],
                "-" if cell["center"] is None else f"{cell['center']:,.2f}",
                "-" if cell["candidate"] is None else f"{cell['candidate']:,.2f}",
                "-" if cell["ratio"] is None else f"{cell['ratio']:.3f}x",
                "-" if cell["band"] is None else f"±{100.0 * cell['band']:.0f}%",
                cell["verdict"],
            ]
        )
    title = (
        f"bench gate — {result['verdict'].upper()} "
        f"({len(result['artifacts'])} artifact(s), candidate {result['candidate']})"
    )
    return render_table(
        ["cell", "metric", "baseline", "candidate", "ratio", "band", "verdict"],
        rows,
        title=title,
    )
