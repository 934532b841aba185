#!/usr/bin/env python3
"""Compare two result files of ``run.py --out``: ``compare.py A.json B.json``.

One row per (metric, workload): A's and B's median, the ratio B/A (A is
the base) and a verdict against the bound ``BENCHMARK.json`` fixes:

``within``      B is no worse and no better than A by more than the bound
``worse``       B is worse than A by more than the bound
``better``      B is better than A by more than the bound
``unresolved``  the readings inside a run spread wider than the bound (the
                distance between their quartiles, as a share of the median)
                and A's and B's readings interleave: the pair decides nothing

``fail_share`` may not rise at all.  A changed ``sim_digest`` is flagged:
the simulated results moved, whatever the host-time numbers say.
Per-layer metrics of traced files are listed with their ratio and no
verdict; they have no bound.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from run import load_spec


def samples(result: Dict[str, Any], metric: str) -> List[float]:
    """Every reading of ``metric`` the run took (one, if it took one)."""
    if metric == "host_s":
        return [r["host_s"] for r in result["rounds"]]
    if metric == "setup_s":
        return [r["host_s"] + result["fixture"]["host_s"]
                for r in result["setup"]]
    return [result[metric]]


def spread(*runs: Sequence[float]) -> float:
    """The widest quartile distance among the runs' readings."""
    widths = [0.0]
    for readings in runs:
        if len(readings) >= 3:
            q1, _, q3 = statistics.quantiles(readings, n=4, method="inclusive")
            widths.append(q3 - q1)
    return max(widths)


def verdict(a: Sequence[float], b: Sequence[float], bound: float,
            better: str) -> str:
    """Judge B's readings against A's; ``better`` is the good direction."""
    sign = 1.0 if better == "lower" else -1.0
    a = [sign * x for x in a]
    b = [sign * x for x in b]
    base = abs(statistics.median(a))
    if base and spread(a, b) / base > bound \
            and min(b) <= max(a) and min(a) <= max(b):
        return "unresolved"
    delta = (statistics.median(b) - statistics.median(a)) / base if base else 0.0
    if delta > bound:
        return "worse"
    if delta < -bound:
        return "better"
    return "within"


def compare(spec: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]
            ) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    for name in a["results"]:
        if name not in b["results"]:
            continue
        ra, rb = a["results"][name], b["results"][name]
        if "per_layer" in ra and "per_layer" in rb:
            for metric in spec["per_layer"]:
                va = ra["per_layer"].get(metric["name"])
                vb = rb["per_layer"].get(metric["name"])
                rows.append({"workload": name, "metric": metric["name"],
                             "a": va, "b": vb, "verdict": "-"})
        else:
            for metric in spec["end_to_end"]:
                sa, sb = samples(ra, metric["name"]), samples(rb, metric["name"])
                rows.append({
                    "workload": name, "metric": metric["name"],
                    "a": statistics.median(sa), "b": statistics.median(sb),
                    "verdict": verdict(sa, sb, metric["bound"],
                                       metric["better"])})
        rows.append({
            "workload": name, "metric": "fail_share",
            "a": ra["fail_share"], "b": rb["fail_share"],
            "verdict": "worse" if rb["fail_share"] > ra["fail_share"]
            else "within"})
        if ra["sim_digest"] != rb["sim_digest"]:
            rows.append({"workload": name, "metric": "sim_digest",
                         "a": None, "b": None, "verdict": "CHANGED"})
    return rows


def _shown(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)
    if a["seed"] != b["seed"]:
        print(f"note: seeds differ (A {a['seed']}, B {b['seed']}): the "
              f"inputs are not the same, so sim_digest will differ")
    bounds = {m["name"]: f"±{m['bound']:.0%}" for m in spec["end_to_end"]}
    bounds["fail_share"] = "+0"
    print(f"{'workload':<14} {'metric':<34} {'A':>12} {'B':>12} "
          f"{'B/A':>8} {'bound':>6}  verdict")
    rows = compare(spec, a, b)
    for row in rows:
        va, vb = row["a"], row["b"]
        ratio = f"{vb / va:.4f}" if va and vb is not None else "-"
        print(f"{row['workload']:<14} {row['metric']:<34} {_shown(va):>12} "
              f"{_shown(vb):>12} {ratio:>8} "
              f"{bounds.get(row['metric'], '-'):>6}  {row['verdict']}")
    worse = [r for r in rows if r["verdict"] == "worse"]
    changed = [r for r in rows if r["verdict"] == "CHANGED"]
    print(f"{len(rows)} rows: {len(worse)} worse, "
          f"{sum(r['verdict'] == 'unresolved' for r in rows)} unresolved, "
          f"{len(changed)} workloads with a changed sim_digest")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
