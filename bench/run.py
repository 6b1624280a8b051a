"""The repository's standing benchmark: one command, five workloads.

    python bench/run.py                  # every workload, prints and writes
                                         # bench/out/result.json
    python bench/run.py --trace          # ... plus one traced run each for
                                         # the per-layer numbers
    python bench/run.py --workload steady_paced --seed 3 --seconds 10 --trace 0

The last form is what the benchmark driver calls (see BENCHMARK.json): it
runs one workload in this process and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Without ``--workload`` each workload runs in
a fresh subprocess of that form, so ``peak_rss_mb`` is per workload.

Any failed correctness or determinism gate exits non-zero and names the
workload.  See README.md for every metric's definition.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here

import argparse
import importlib
import json
import os
import platform
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
sys.path.insert(1, os.path.join(ROOT, "src"))

from hostclock import at_reference_speed, calibrate
from spec import END_TO_END, PER_LAYER, WORKLOAD_END_TO_END, WORKLOADS, workload

#: How often the program is imported afresh to time its import.
IMPORT_REPEATS = 3


def _import_program() -> float:
    """Import ``repro`` afresh; the host seconds it took, at reference speed.

    Must run before any benchmark module binds names from ``repro``.
    """
    for name in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[name]
    calibration_s = calibrate()
    started = time.perf_counter()
    for module in ("repro", "repro.check", "repro.workload.verify"):
        importlib.import_module(module)
    return at_reference_speed(time.perf_counter() - started, calibration_s)


# ----------------------------------------------------------------------
# one workload, in this process (what the driver calls)
# ----------------------------------------------------------------------

def run_workload(args) -> int:
    pre_import_s = time.perf_counter() - _T0
    pre_import_s = at_reference_speed(pre_import_s, calibrate())
    try:
        import_s = statistics.median(_import_program() for _ in range(IMPORT_REPEATS))
    except ModuleNotFoundError as missing:
        print(f"FAILED {args.workload}: cannot import the program from "
              f"{os.path.join(ROOT, 'src')}: {missing}", file=sys.stderr)
        return 2
    import harness  # binds the freshly imported program

    spec = workload(args.workload, quick=args.quick)
    try:
        if args.trace:
            result = harness.run_traced(spec, args.seed)
            metrics, catalogue = result["per_layer"], PER_LAYER
        else:
            result = harness.run_timed(spec, args.seed, args.seconds, pre_import_s + import_s)
            metrics, catalogue = result["end_to_end"], END_TO_END
    except harness.GateFailure as failure:
        print(f"FAILED {spec.name} (seed {args.seed}): {failure}", file=sys.stderr)
        return 1

    os.makedirs(OUT_DIR, exist_ok=True)
    kind = "layers" if args.trace else "result"
    with open(os.path.join(OUT_DIR, f"{spec.name}.{kind}.json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)

    _print_metrics(spec, result, metrics, catalogue)
    print(json.dumps({
        "correct": True,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in catalogue},
    }))
    return 0


def _print_metrics(spec, result, metrics, catalogue) -> None:
    samples = result["samples"]
    print(f"== {spec.name}  seed {result['seed']}  "
          f"({spec.loop} loop, {spec.sessions} sessions, "
          f"{spec.measured_s:g} measured simulated s) ==")
    print(f"   attempted {result['attempted']}  committed {samples['txn']}  "
          f"failed {result['failed']}  "
          + (f"repeats {result['repeats']}" if "repeats" in result else "traced run"))
    rows = [(m, metrics[m.name]) for m in catalogue]
    rows += [(m, result["workload_end_to_end"][m.name])
             for w, m in WORKLOAD_END_TO_END
             if w == spec.name and "workload_end_to_end" in result]
    for m, value in rows:
        note = ""
        if m.name.startswith("txn_p"):
            note = f"n={samples['txn']}"
        elif m.name == "flush_lag_p99_ms":
            note = f"n={samples['flush_lag']}"
        elif m.name.endswith(("_p50_ms", "_p99_ms")):
            note = f"n={samples.get(m.name.rsplit('_', 2)[0], samples['txn'])}"
        elif m.name == "host_txn_per_s":
            note = f"k={result['repeats']}"
        print(f"   {m.name:36s} {value:16.6f} {m.unit:7s} {m.clock:5s} {note}")


# ----------------------------------------------------------------------
# every workload, each in a fresh subprocess
# ----------------------------------------------------------------------

def run_suite(args) -> int:
    started = time.perf_counter()
    env = dict(os.environ, PYTHONHASHSEED="0")
    suite = {
        "meta": {
            "seed": args.seed, "seconds": args.seconds, "runs": args.runs,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "machine": platform.machine(), "quick": args.quick,
        },
        "workloads": {},
    }
    for name in WORKLOADS:
        entry = suite["workloads"][name] = {"runs": []}
        invocations = [0] * args.runs + ([1] if args.trace else [])
        for trace in invocations:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--quick"] if args.quick else [])
            done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            if done.returncode != 0:
                print(f"FAILED {name}: exit code {done.returncode}", file=sys.stderr)
                return 1
            kind = "layers" if trace else "result"
            with open(os.path.join(OUT_DIR, f"{name}.{kind}.json")) as fh:
                result = json.load(fh)
            if trace:
                entry["per_layer"] = result["per_layer"]
                entry["oracle"] = result["oracle"]
            else:
                entry["runs"].append(result)
        entry["end_to_end"] = _fold(entry["runs"], name)
    suite["meta"]["total_host_s"] = time.perf_counter() - started
    with open(args.out, "w") as fh:
        json.dump(suite, fh, indent=1, sort_keys=True)
    print(f"wrote {args.out} ({suite['meta']['total_host_s']:.0f} s)")
    return 0


def _fold(runs, workload: str) -> dict:
    """Per end-to-end metric: every run's value and their median."""
    folded = {}
    metrics = list(END_TO_END) + [m for w, m in WORKLOAD_END_TO_END if w == workload]
    for m in metrics:
        values = [
            run["end_to_end"].get(m.name, run["workload_end_to_end"].get(m.name))
            for run in runs
        ]
        if m.clock != "host" and len(set(values)) > 1:
            raise SystemExit(f"FAILED {workload}: {m.name} is {m.clock}-clocked "
                             f"but differs between runs: {values}")
        folded[m.name] = {"median": statistics.median(values), "values": values,
                          "unit": m.unit, "clock": m.clock}
    return folded


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run this one workload in-process (driver form)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="host seconds of measured repeats per invocation")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="1: the traced, per-layer run")
    parser.add_argument("--quick", action="store_true",
                        help="about 3 simulated seconds per workload (tests only)")
    parser.add_argument("--runs", type=int, default=3,
                        help="suite mode: timed invocations per workload")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "result.json"),
                        help="suite mode: where the merged result goes")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args)
    for directory in (OUT_DIR, os.path.dirname(os.path.abspath(args.out))):
        os.makedirs(directory, exist_ok=True)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
