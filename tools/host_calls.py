#!/usr/bin/env python3
"""Python calls per committed transaction, by function and by file.

    python tools/host_calls.py steady_paced --seed 0
    make host-calls W=steady_paced [SEED=0]

Builds the benchmark workload ``W`` as ``bench/run.py`` does (``bench/``
is imported read-only) and counts, under cProfile, every call made in
one untraced measured window: set-up, warm-up and drain are not counted.
It then counts, apart, the calls of one export read after the window --
``cluster.metrics_snapshot()`` and ``tracer_for(kernel).spans()``, what
the benchmark's extraction reads -- so work moved from the window to
read time still shows in the "window + export" total.  Each count is
divided by the transactions the window committed.

Unlike host time, a call count has no noise: the same seed makes the
same calls.  The window and the export are therefore run twice, on two
fresh clusters, and the tool exits 1 if the two counts differ in any
function.  Read it beside ``make host-pairs``: a cut that removes calls
shows here exactly, whatever the machine is doing.
"""

import argparse
import collections
import cProfile
import gc
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
PROGRAM_DIR = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, BENCH_DIR)
sys.path.insert(1, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from loadgen import COMMITTED, LoadRun  # noqa: E402
from spec import WORKLOADS, workload  # noqa: E402

from repro.metrics.spans import tracer_for  # noqa: E402
from repro.workload.verify import CommitLedger  # noqa: E402

#: Rows printed per table.
TOP = 30


def _file_label(filename: str) -> str:
    """``sim/node.py`` for the program, ``bench/loadgen.py``, else the basename."""
    if filename.startswith(PROGRAM_DIR + os.sep):
        return filename[len(PROGRAM_DIR) + 1:]
    if filename.startswith(BENCH_DIR + os.sep):
        return "bench/" + filename[len(BENCH_DIR) + 1:]
    return os.path.basename(filename)


def _calls(profile: cProfile.Profile) -> collections.Counter:
    """``(file, function) -> calls`` straight from the profiler's entries:
    pstats keys functions by (file, line, name) and keeps one of any that
    collide, such as the generated ``__init__`` of every dataclass
    (``<string>``, line 2)."""
    calls = collections.Counter()
    for entry in profile.getstats():
        code = entry.code
        if isinstance(code, str):  # a C function
            if code != "<method 'disable' of '_lsprof.Profiler' objects>":
                calls["~ (C)", code] += entry.callcount
        else:
            label = _file_label(code.co_filename)
            calls[label, f"{label}:{code.co_firstlineno} {code.co_name}"] += entry.callcount
    return calls


def count(name: str, seed: int):
    """``(window calls, export calls, committed)`` of one fresh measured
    window and the export read after it."""
    spec = workload(name)
    prepared = harness.Prepared(spec, seed)
    run = LoadRun(prepared.cluster, prepared.handle, spec, prepared.source,
                  CommitLedger())
    window = cProfile.Profile()
    run.execute(time.perf_counter, window.enable, window.disable)
    committed = sum(1 for r in run.measured() if r.outcome == COMMITTED)
    export = cProfile.Profile()
    export.enable()
    prepared.cluster.metrics_snapshot()
    tracer_for(run.kernel).spans()
    export.disable()
    del prepared, run
    gc.collect()
    return _calls(window), _calls(export), committed


def report(title: str, calls, committed: int) -> None:
    total = sum(calls.values())
    print(f"\n{title}: {total / committed:,.1f} calls per committed transaction "
          f"({total:,} calls, {committed:,} committed)")
    by_file, by_function = collections.Counter(), collections.Counter()
    for (filename, function), n in calls.items():
        by_file[filename] += n
        by_function[function] += n
    for name, table in (("by file", by_file), ("by function", by_function)):
        print(f"\n{title} {name}\n{'per txn':>9s} {'share %':>7s}  where")
        for key, n in sorted(table.items(), key=lambda kv: (-kv[1], kv[0]))[:TOP]:
            print(f"{n / committed:9.1f} {100 * n / total:7.1f}  {key}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    first = count(args.workload, args.seed)
    second = count(args.workload, args.seed)
    window, export, committed = first
    print(f"host calls: {args.workload} seed {args.seed}, one untraced measured "
          f"window and one export read under cProfile, counted twice")
    report("window", window, committed)
    report("export", export, committed)
    rows = [("window", sum(window.values())), ("export", sum(export.values()))]
    rows.append(("window + export", rows[0][1] + rows[1][1]))
    print(f"\ncalls per committed transaction ({committed:,} committed)")
    for label, n in rows:
        print(f"{label:>15s} {n / committed:11,.1f}")
    if first != second:
        differing = sorted(k for a, b in zip(first[:2], second[:2])
                           for k in a.keys() | b.keys() if a[k] != b[k])
        print(f"\nthe two runs differ: committed {committed} vs {second[2]}, "
              f"{len(differing)} functions, e.g. {[f for _, f in differing[:5]]}")
        return 1
    print("\nthe two runs made the same calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
