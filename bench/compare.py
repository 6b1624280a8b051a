"""Compare two result files of ``run.py``: did anything get worse?

    python bench/compare.py OLD.json NEW.json

One row per workload x end-to-end metric: old median, new median, the
ratio new/old (its base is the old median), the host spread, and a
verdict against the bound fixed in ``BENCHMARK.json``:

* ``better``       -- improved by more than the bound
* ``within bound`` -- moved by no more than the bound, either way
* ``worse``        -- got worse by more than the bound
* ``unresolved``   -- a host-clock metric whose run-to-run spread (distance
  between the quartiles of its runs, as a share of their median, the wider
  of the two files) exceeds the bound: the runs cannot tell

Simulated and count metrics repeat exactly, so their spread is zero and
any difference is real.  Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Tuple

from spec import END_TO_END, WORKLOAD_END_TO_END

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def bounds() -> Dict[Tuple[str, str], Tuple[float, str]]:
    """``{(workload or "*", metric): (bound, better)}``.

    Bounds of the metrics every workload reports come from BENCHMARK.json;
    the one-workload metrics are bounded in spec.py (the driver's schema has
    no place for them).
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)
    table = {("*", m["name"]): (m["bound"], m["better"]) for m in contract["end_to_end"]}
    for workload, metric in WORKLOAD_END_TO_END:
        table[(workload, metric.name)] = (metric.bound, metric.better)
    return table


def spread(values: List[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2 or len(set(values)) == 1:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(old: dict, new: dict, bound: float, better: str) -> Tuple[str, float, float]:
    """(verdict, new/old ratio, host spread) for one metric of one workload."""
    ratio = new["median"] / old["median"]
    wider = max(spread(old["values"]), spread(new["values"]))
    gain = (1.0 - ratio) if better == "lower" else (ratio - 1.0)
    if old["clock"] == "host" and wider > bound:
        return "unresolved", ratio, wider
    if gain < -bound:
        return "worse", ratio, wider
    if gain > bound:
        return "better", ratio, wider
    return "within bound", ratio, wider


def compare(old: dict, new: dict) -> List[tuple]:
    """Rows ``(workload, metric, old, new, unit, ratio, spread, bound, verdict)``."""
    table = bounds()
    order = [m.name for m in END_TO_END] + [m.name for _w, m in WORKLOAD_END_TO_END]
    rows = []
    for workload, old_entry in old["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            continue
        for name in order:
            if name not in old_entry["end_to_end"] or name not in new_entry["end_to_end"]:
                continue
            a, b = old_entry["end_to_end"][name], new_entry["end_to_end"][name]
            bound, better = table.get((workload, name)) or table[("*", name)]
            what, ratio, wider = verdict(a, b, bound, better)
            rows.append((workload, name, a["median"], b["median"], a["unit"],
                         ratio, wider, bound, what))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fh:
        old = json.load(fh)
    with open(argv[1]) as fh:
        new = json.load(fh)
    rows = compare(old, new)
    print(f"{'workload':22s} {'metric':18s} {'old median':>14s} {'new median':>14s} "
          f"{'unit':7s} {'new/old':>8s} {'spread':>7s} {'bound':>6s}  verdict")
    for workload, name, a, b, unit, ratio, wider, bound, what in rows:
        print(f"{workload:22s} {name:18s} {a:14.4f} {b:14.4f} {unit:7s} "
              f"{ratio:8.4f} {wider:7.2%} {bound:6.0%}  {what}")
    counts = {}
    for row in rows:
        counts[row[-1]] = counts.get(row[-1], 0) + 1
    print(", ".join(f"{n} {what}" for what, n in sorted(counts.items())))
    return 1 if counts.get("worse") else 0


if __name__ == "__main__":
    sys.exit(main())
