#!/usr/bin/env python3
"""Host throughput of the working tree against a git ref, in alternating pairs.

    python tools/host_pairs.py BASE --workload saturated_closed --pairs 10
    make host-pairs BASE=main W=saturated_closed N=10 [SEED=0] [AA=1]

Checks ``BASE`` out into a temporary local clone and runs the benchmark's
one-workload form at its run length, ``bench/run.py --workload W --seed S
--seconds 10 --trace 0``, once in each tree per pair, switching which side
goes first every pair: the host drifts between faster and slower phases,
and a side that always ran first would always meet the same phase.  It
prints every pair's ``host_txn_per_s``, each side's median and quartiles,
how many pairs the working tree won, and whether that is a gain the
benchmark would accept: higher in at least nine pairs of ten, by a median
margin wider than the base's interquartile spread.  ``--aa`` adds a
base-against-base set of the same size, the noise floor to read the result
against.  Every simulated metric is also compared across all runs; a change
that claims host time only must leave them equal.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from spec import END_TO_END  # noqa: E402

METRIC = "host_txn_per_s"
HOST_CLOCKED = {m.name for m in END_TO_END if m.clock == "host"}


def run_once(tree: str, args) -> dict:
    """A single-workload benchmark run in ``tree``: its metric values."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, os.path.join(tree, "bench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "10", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} (in {tree}) exited {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    values["attempted"], values["failed"] = result["attempted"], result["failed"]
    return values


def run_pairs(label: str, a_tree: str, b_tree: str, args) -> tuple:
    """``args.pairs`` alternating pairs; the runs of side a and of side b."""
    a_runs, b_runs = [], []
    print(f"\n{label}\npair  first  {'a':>10s}  {'b':>10s}")
    for i in range(args.pairs):
        if i % 2 == 0:
            a, b = run_once(a_tree, args), run_once(b_tree, args)
        else:
            b, a = run_once(b_tree, args), run_once(a_tree, args)
        a_runs.append(a)
        b_runs.append(b)
        print(f"{i + 1:4d}  {'a' if i % 2 == 0 else 'b':5s}  "
              f"{a[METRIC]:10.1f}  {b[METRIC]:10.1f}", flush=True)
    return a_runs, b_runs


def summarize(a_runs, b_runs) -> None:
    for side, runs in (("a", a_runs), ("b", b_runs)):
        values = [r[METRIC] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        print(f"{side}: median {median:.1f}  "
              f"quartiles {q1:.1f} - {q3:.1f} (spread {q3 - q1:.1f})  "
              f"peak_rss_mb {statistics.median(r['peak_rss_mb'] for r in runs):.2f}  "
              f"setup_s {statistics.median(r['setup_s'] for r in runs):.3f}")
    a_values = [r[METRIC] for r in a_runs]
    b_values = [r[METRIC] for r in b_runs]
    wins = sum(b > a for a, b in zip(a_values, b_values))
    q1, a_median, q3 = statistics.quantiles(a_values, n=4)
    gain = statistics.median(b_values) - a_median
    if len(a_values) < 10:
        verdict = "too few pairs for the benchmark's rule (10)"
    elif wins >= 0.9 * len(a_values) and gain > q3 - q1:
        verdict = "a gain by the benchmark's rule"
    else:
        verdict = "no gain by the benchmark's rule"
    print(f"b higher in {wins} of {len(a_values)} pairs; median "
          f"{gain:+.1f} ({100 * gain / a_median:+.1f} %), "
          f"a's quartile spread {q3 - q1:.1f}: {verdict}")
    simulated = [{k: v for k, v in r.items() if k not in HOST_CLOCKED}
                 for r in a_runs + b_runs]
    differing = sorted(k for k in simulated[0] if any(s[k] != simulated[0][k] for s in simulated))
    print("simulated metrics: " + ("identical in every run" if not differing
                                   else "DIFFER in " + ", ".join(differing)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref to compare the working tree against")
    parser.add_argument("--workload", default="saturated_closed")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--aa", action="store_true",
                        help="also run a base-against-base set of the same size")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 for quartiles")
    # Resolved here, so a ref names the same commit in the clone as in ROOT.
    commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify",
                             args.base + "^{commit}"], check=True,
                            stdout=subprocess.PIPE, text=True).stdout.strip()
    print(f"{METRIC}, {args.workload} seed {args.seed}: "
          f"a = {args.base} ({commit[:12]}), b = the working tree {ROOT}")
    with tempfile.TemporaryDirectory(prefix="host-pairs-") as scratch:
        base = os.path.join(scratch, "base")
        subprocess.run(["git", "clone", "--quiet", "--no-checkout", ROOT, base], check=True)
        subprocess.run(["git", "-C", base, "checkout", "--quiet", "--detach", commit],
                       check=True)
        summarize(*run_pairs(f"a = {args.base}, b = working tree", base, ROOT, args))
        if args.aa:
            summarize(*run_pairs(f"A/A: a = b = {args.base}", base, base, args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
