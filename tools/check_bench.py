#!/usr/bin/env python3
"""Gate a fresh bench run against the committed baseline.

Usage:
    python tools/check_bench.py FRESH.json [--baseline BENCH_N.json]
                                [--max-regression 0.20]

Compares the simulator's speed -- committed transactions per host second,
``workload.committed / simulator.wall_clock_s`` -- of a fresh ``repro
bench`` snapshot against the newest committed ``BENCH_<n>.json`` (or an
explicit ``--baseline``) and exits non-zero if the fresh rate falls more
than ``--max-regression`` below it.  Events per second is *not* gated: it
drops when a change removes events, which is an improvement.  Also
cross-checks what must never move for the committed scenario: same-seed
committed / aborted / failed counts, when the fresh run used the same
scenario parameters as the baseline -- the cheapest proof that the
schedule did not move.  The event count itself is free to change.

The gate is deliberately rate-based so a shortened CI bench (smaller
``--duration``) still compares meaningfully against the full-length
committed baseline.
"""

import argparse
import json
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def newest_committed_baseline() -> str:
    taken = {}
    for name in os.listdir(REPO_ROOT):
        m = re.fullmatch(r"BENCH_(\d+)\.json", name)
        if m:
            taken[int(m.group(1))] = os.path.join(REPO_ROOT, name)
    if not taken:
        raise SystemExit("no committed BENCH_<n>.json baseline found")
    return taken[max(taken)]


def commits_per_s(snapshot: dict) -> float:
    """Committed transactions per host second of one bench snapshot
    (computed, so baselines older than ``simulator.commits_per_s`` work)."""
    return snapshot["workload"]["committed"] / snapshot["simulator"]["wall_clock_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fresh", help="bench JSON produced by this run")
    parser.add_argument(
        "--baseline", default=None,
        help="baseline bench JSON (default: newest committed BENCH_<n>.json)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.20,
        help="maximum tolerated fractional commits/s drop (default 0.20)",
    )
    args = parser.parse_args(argv)

    baseline_path = args.baseline or newest_committed_baseline()
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    with open(args.fresh) as fh:
        fresh = json.load(fh)

    base_rate = commits_per_s(baseline)
    fresh_rate = commits_per_s(fresh)
    floor = base_rate * (1.0 - args.max_regression)
    print(
        f"commits/s: fresh {fresh_rate:.1f} vs baseline {base_rate:.1f} "
        f"({baseline_path}); floor {floor:.1f} "
        f"(-{args.max_regression:.0%})"
    )
    failures = []
    if fresh_rate < floor:
        failures.append(
            f"commits/s regressed: {fresh_rate:.1f} < {floor:.1f} "
            f"({(1 - fresh_rate / base_rate):.1%} below baseline)"
        )

    # Semantics must be bit-stable whenever the scenario matches.
    if fresh.get("scenario") == baseline.get("scenario"):
        for key in ("committed", "aborted", "failed"):
            want = baseline["workload"][key]
            got = fresh["workload"][key]
            if got != want:
                failures.append(f"workload {key} changed: {got} != {want}")
    else:
        base_iso = (baseline.get("scenario") or {}).get("isolation", "si")
        fresh_iso = (fresh.get("scenario") or {}).get("isolation", "si")
        if base_iso != fresh_iso:
            print(
                f"isolation modes differ (baseline {base_iso}, fresh "
                f"{fresh_iso}); skipping semantic checks"
            )
        else:
            print("scenario differs from baseline; skipping semantic checks")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if not failures:
        print("ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
