"""Terminal plots: sparklines, histograms, bar charts — no display needed.

The reproduction environment is headless, so the "figures" are rendered as
Unicode text: benchmark output, CLI summaries and examples embed these
charts directly.  Everything returns plain strings.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["sparkline", "histogram", "bar_chart", "progress_bar"]

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"


def _finite(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("need a non-empty 1-D sequence")
    return arr


def sparkline(
    values: Sequence[float],
    *,
    lo: float | None = None,
    hi: float | None = None,
    gap: str = " ",
) -> str:
    """One-line trend: ``sparkline([5,3,1,0]) -> '█▅▂▁'``.

    NaNs render as ``gap`` (a space by default; pass e.g. ``"·"`` to make
    holes in a series visible); a constant series renders at the lowest
    level.  ``lo``/``hi`` pin the scale (e.g. 0..1 for fractions across
    charts).
    """
    arr = _finite(values)
    finite = arr[np.isfinite(arr)]
    if finite.size == 0:
        return gap * arr.size
    lo = float(np.min(finite)) if lo is None else float(lo)
    hi = float(np.max(finite)) if hi is None else float(hi)
    span = hi - lo
    out = []
    for v in arr:
        if not math.isfinite(v):
            out.append(gap)
            continue
        if span <= 0:
            out.append(_SPARK_LEVELS[0])
            continue
        idx = int((v - lo) / span * (len(_SPARK_LEVELS) - 1) + 0.5)
        out.append(_SPARK_LEVELS[max(0, min(idx, len(_SPARK_LEVELS) - 1))])
    return "".join(out)


def progress_bar(fraction: float, *, width: int = 30) -> str:
    """Bounded completion bar: ``progress_bar(0.5) -> '[███████████████···············]'``.

    Non-finite fractions render as an all-gap bar (an unknown amount of
    work, not zero work); finite input is clamped to [0, 1].
    """
    if width < 1:
        raise ValueError("width must be positive")
    if not math.isfinite(fraction):
        return "[" + "·" * width + "]"
    frac = max(0.0, min(1.0, float(fraction)))
    filled = int(round(frac * width))
    return "[" + "█" * filled + "·" * (width - filled) + "]"


def histogram(
    values: Sequence[float],
    *,
    bins: int = 10,
    width: int = 40,
    title: str | None = None,
) -> str:
    """Horizontal-bar histogram."""
    arr = _finite(values)
    arr = arr[np.isfinite(arr)]
    if arr.size == 0:
        raise ValueError("no finite values")
    counts, edges = np.histogram(arr, bins=bins)
    peak = counts.max() if counts.max() > 0 else 1
    lines = [title] if title else []
    for c, lo_e, hi_e in zip(counts, edges[:-1], edges[1:]):
        bar = "#" * int(round(c / peak * width))
        lines.append(f"[{lo_e:10.4g}, {hi_e:10.4g}) {bar} {c}")
    return "\n".join(lines)


def bar_chart(
    labels: Sequence[str],
    values: Sequence[float],
    *,
    width: int = 40,
    title: str | None = None,
    fmt: str = "{:.4g}",
) -> str:
    """Labelled horizontal bars (protocol-comparison style)."""
    arr = _finite(values)
    if len(labels) != arr.size:
        raise ValueError("labels and values must match")
    peak = float(np.max(np.abs(arr))) or 1.0
    label_w = max(len(str(s)) for s in labels)
    lines = [title] if title else []
    for label, v in zip(labels, arr):
        bar = "#" * int(round(abs(v) / peak * width))
        lines.append(f"{str(label).ljust(label_w)} |{bar} {fmt.format(v)}")
    return "\n".join(lines)
