#!/usr/bin/env python3
"""Where one workload's host time goes, by sampling the stack.

    python tools/host_profile.py steady_paced --seed 0 --repeats 3
    make host-profile W=steady_paced [SEED=0]

Builds the benchmark workload ``W`` as ``bench/run.py`` does (``bench/``
is imported read-only), runs ``--repeats`` fresh repeats, and samples the
Python stack with a ``SIGPROF`` interval timer during each repeat's
measured window only: set-up, warm-up and drain are not sampled.  The
timer counts this process's CPU time and nothing else, and the
interpreter stays untraced -- unlike cProfile, which slows the loop about
3.5x and charges most of that to whatever makes many short calls, a
sample costs one walk of the stack.

Prints the share of samples by file and by function.  *Self* is the
innermost Python frame of a sample (time in C builtins it called counts
there); *incl* counts every distinct file or function on the stack, so a
recursive function counts once per sample.
"""

import argparse
import collections
import gc
import os
import signal
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "bench")
PROGRAM_DIR = os.path.join(ROOT, "src", "repro")
sys.path.insert(0, BENCH_DIR)
sys.path.insert(1, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from loadgen import LoadRun  # noqa: E402
from spec import WORKLOADS, workload  # noqa: E402

from repro.workload.verify import CommitLedger  # noqa: E402

#: CPU seconds between two samples.
INTERVAL_S = 0.0005
#: Rows printed per table.
TOP = 25


def _file_label(filename: str) -> str:
    """``sim/node.py`` for the program, ``bench/loadgen.py``, else the basename."""
    if filename.startswith(PROGRAM_DIR + os.sep):
        return filename[len(PROGRAM_DIR) + 1:]
    if filename.startswith(BENCH_DIR + os.sep):
        return "bench/" + filename[len(BENCH_DIR) + 1:]
    return os.path.basename(filename)


class Sampler:
    """A ``SIGPROF`` handler counting the stacks it lands on."""

    def __init__(self) -> None:
        #: innermost-first tuple of code objects -> samples
        self.stacks = collections.Counter()

    def _on_signal(self, _signum, frame) -> None:
        stack = []
        while frame is not None:
            stack.append(frame.f_code)
            frame = frame.f_back
        self.stacks[tuple(stack)] += 1

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._on_signal)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)


def profile(name: str, seed: int, repeats: int) -> Sampler:
    """Sample the measured window of ``repeats`` fresh repeats of ``name``."""
    spec = workload(name)
    sampler = Sampler()
    for _ in range(repeats):
        prepared = harness.Prepared(spec, seed)
        run = LoadRun(prepared.cluster, prepared.handle, spec, prepared.source,
                      CommitLedger())
        run.execute(time.perf_counter, sampler.start, sampler.stop)
        del prepared, run
        gc.collect()
    return sampler


def _func_label(code) -> str:
    return f"{_file_label(code.co_filename)}:{code.co_firstlineno} {code.co_name}"


def _print_table(title: str, own, incl, samples: int, by_incl: bool) -> None:
    print(f"\n{title}\n{'self %':>7s} {'incl %':>7s}  where")
    first = incl if by_incl else own
    for key in sorted(incl, key=lambda k: (-first[k], k))[:TOP]:
        print(f"{100 * own[key] / samples:7.1f} {100 * incl[key] / samples:7.1f}  {key}")


def report(sampler: Sampler) -> None:
    """Self and inclusive shares by file, then by function (two orders)."""
    samples = sum(sampler.stacks.values())
    file_own, file_incl = collections.Counter(), collections.Counter()
    func_own, func_incl = collections.Counter(), collections.Counter()
    for stack, hits in sampler.stacks.items():
        file_own[_file_label(stack[0].co_filename)] += hits
        func_own[_func_label(stack[0])] += hits
        for label in {_file_label(code.co_filename) for code in stack}:
            file_incl[label] += hits
        for label in {_func_label(code) for code in stack}:
            func_incl[label] += hits
    _print_table("by file", file_own, file_incl, samples, False)
    _print_table("by function, self order", func_own, func_incl, samples, False)
    _print_table("by function, inclusive order", func_own, func_incl, samples, True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3,
                        help="fresh repeats whose measured windows are sampled")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    sampler = profile(args.workload, args.seed, args.repeats)
    samples = sum(sampler.stacks.values())
    print(f"host profile: {args.workload} seed {args.seed}, {args.repeats} measured "
          f"windows, {samples} samples every {INTERVAL_S * 1000:g} ms of CPU")
    if samples:
        report(sampler)
    return 0


if __name__ == "__main__":
    sys.exit(main())
