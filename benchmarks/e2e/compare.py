"""Compare two results files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

For every (workload, end-to-end metric) it prints both sides' medians and
quartiles and a verdict against the metric's bound in ``BENCHMARK.json``:

- ``unresolved`` — either side's spread (quartile distance over median) is
  wider than the bound, so a change of that size cannot be told from noise;
- ``worse`` / ``better`` — B's median moved past the bound in that direction;
- ``within bound`` — otherwise.

Any failed operation on B (``failed_frac`` above 0) counts as ``worse``.
Exits 1 if anything is worse.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def spread(metric: dict[str, Any]) -> float:
    value = metric["value"]
    return (metric["p75"] - metric["p25"]) / abs(value) if value else 0.0


def verdict(a: dict[str, Any], b: dict[str, Any], bound: float, better: str) -> tuple[str, float]:
    """The verdict on B against A, and B's relative change (+ is worse)."""
    change = (b["value"] - a["value"]) / abs(a["value"]) if a["value"] else 0.0
    worse_by = change if better == "lower" else -change
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "within bound", worse_by


def compare(a: dict[str, Any], b: dict[str, Any], metrics: list[dict[str, Any]]) -> list[dict]:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        side_a, side_b = a["workloads"][workload], b["workloads"][workload]
        for m in metrics:
            ma = side_a.get("metrics", {}).get(m["name"])
            mb = side_b.get("metrics", {}).get(m["name"])
            if ma is None or mb is None:
                continue
            label, worse_by = verdict(ma, mb, m["bound"], m["better"])
            rows.append({"workload": workload, "metric": m["name"], "unit": m["unit"],
                         "a": ma, "b": mb, "worse_by": worse_by, "verdict": label})
        frac_a, frac_b = failed_frac(side_a), failed_frac(side_b)
        rows.append({"workload": workload, "metric": "failed_frac", "unit": "ratio",
                     "a": {"value": frac_a}, "b": {"value": frac_b}, "worse_by": frac_b - frac_a,
                     "verdict": "worse" if frac_b > 0 else "within bound"})
    return rows


def failed_frac(side: dict[str, Any]) -> float:
    return side.get("failed", 0) / max(side.get("attempted", 0), 1)


def _cell(m: dict[str, Any]) -> str:
    if "p25" not in m:
        return f"{m['value']:>10.4g}{'':>24}"
    return f"{m['value']:>10.4g} [{m['p25']:>9.4g}, {m['p75']:>9.4g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="baseline results")
    parser.add_argument("b", type=Path, help="candidate results")
    parser.add_argument("--benchmark", type=Path, default=BENCHMARK)
    args = parser.parse_args(argv)
    metrics = json.loads(args.benchmark.read_text())["end_to_end"]
    rows = compare(json.loads(args.a.read_text()), json.loads(args.b.read_text()), metrics)
    print(f"{'workload':<13} {'metric':<18} {'A median [p25, p75]':>34} "
          f"{'B median [p25, p75]':>34} {'change':>8}  verdict")
    for r in rows:
        print(f"{r['workload']:<13} {r['metric']:<18} {_cell(r['a'])} {_cell(r['b'])} "
              f"{100 * r['worse_by']:>+7.1f}%  {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
