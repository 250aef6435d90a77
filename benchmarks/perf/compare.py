"""``python -m benchmarks.perf compare A.json B.json``.

One row per (end-to-end metric, workload): both medians over each
file's untraced visits, the ratio B/A (base: A), and a verdict —

* ``regressed``  B's median is worse than A's by more than the bound;
* ``improved``   B's median is better than A's by more than the bound;
* ``unchanged``  the medians are within the bound;
* ``unresolved`` the visit-to-visit spread (interquartile range over
  median, the wider of the two files) exceeds the bound and the two
  files' visits are not cleanly separated, so no verdict is safe.

Statistics digests and the exact-count per-layer metrics must be
identical.  Exit status is non-zero on any ``regressed`` row, a higher
``failed_frac``, or a digest / exact-count mismatch.
"""

from __future__ import annotations

import argparse
import json
import statistics
from typing import Any, Dict, List, Optional, Sequence, Tuple

from benchmarks.perf.metrics import END_TO_END, EXACT, Metric

Key = Tuple[str, bool]  # (workload, traced)


def _load(path: str) -> Dict[Key, List[Dict[str, Any]]]:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    visits: Dict[Key, List[Dict[str, Any]]] = {}
    for visit in report["visits"]:
        visits.setdefault((visit["workload"], visit["traced"]), []).append(
            visit
        )
    return visits


def _values(visits: Sequence[Dict[str, Any]], name: str) -> List[float]:
    return [
        v["metrics"][name]["value"] for v in visits if name in v["metrics"]
    ]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(metric: Metric, a: Sequence[float], b: Sequence[float]) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (statistics.median(b) / statistics.median(a) - 1.0)
    separated = max(a) < min(b) or max(b) < min(a)
    if max(spread(a), spread(b)) > metric.bound and not separated:
        return "unresolved"
    if worse_by > metric.bound:
        return "regressed"
    if worse_by < -metric.bound:
        return "improved"
    return "unchanged"


def _failed_frac(visits: Sequence[Dict[str, Any]]) -> float:
    return max(v["failed"] / v["attempted"] for v in visits)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.perf compare")
    parser.add_argument("base", help="result file A (the base of ratios)")
    parser.add_argument("change", help="result file B")
    args = parser.parse_args(argv)
    base, change = _load(args.base), _load(args.change)
    bad = 0
    print(
        f"{'workload':16s} {'metric':18s} {'A median':>12s} "
        f"{'B median':>12s} {'B/A':>7s}  verdict (n_A, n_B, spread)"
    )
    for key in sorted(set(base) & set(change)):
        name, traced = key
        a_visits, b_visits = base[key], change[key]
        if {v.get("digest") for v in a_visits} != {
            v.get("digest") for v in b_visits
        }:
            print(f"{name:16s} stats_digest differs between the files")
            bad += 1
        fa, fb = _failed_frac(a_visits), _failed_frac(b_visits)
        if fb > fa:
            print(f"{name:16s} failed_frac rose {fa:.2f} -> {fb:.2f}")
            bad += 1
        if traced:
            for exact in EXACT:
                a, b = _values(a_visits, exact), _values(b_visits, exact)
                if set(a) != set(b):
                    print(f"{name:16s} {exact}: {a} != {b} (exact count)")
                    bad += 1
            continue
        for metric in END_TO_END:
            a = _values(a_visits, metric.name)
            b = _values(b_visits, metric.name)
            if not a or not b:
                continue
            result = verdict(metric, a, b)
            bad += result == "regressed"
            med_a, med_b = statistics.median(a), statistics.median(b)
            print(
                f"{name:16s} {metric.name:18s} {med_a:12.5g} {med_b:12.5g} "
                f"{med_b / med_a:7.3f}  {result} (n={len(a)},{len(b)}; "
                f"spread {max(spread(a), spread(b)):.3f}, "
                f"bound {metric.bound}) [{metric.unit}]"
            )
    for key in sorted(set(base) ^ set(change)):
        print(f"{key[0]:16s} traced={int(key[1])}: only in one file")
    print(f"{bad} problem(s)")
    return 1 if bad else 0
