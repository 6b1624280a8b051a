#!/usr/bin/env python3
"""Run the five chaos sweeps in the working tree and at a git ref; diff them.

    python tools/chaos_diff.py BASE
    make chaos-diff BASE=<git ref>

Checks ``BASE`` out into a temporary local clone (``host_pairs.checkout``)
and runs ``make chaos-all`` in it and in the working tree, side by side.
Each tree's sweeps leave their stdout, ``--json`` reports, saved histories
and ``repro check`` re-audits under its own ``artifacts/``; the working
tree's ``artifacts/`` (a build output, ignored by git) is emptied first so
that nothing from an earlier run is compared.  Prints every file that is
in one tree only or differs between them, and exits 1 if any does or if
either tree's sweeps failed: two trees ran byte-identical storms exactly
when this exits 0.  ``BASE`` must have the ``chaos-all`` target.
"""

import argparse
import filecmp
import os
import shutil
import subprocess
import sys

from host_pairs import ROOT, checkout

ARTIFACTS = "artifacts"


def start_sweeps(tree: str) -> subprocess.Popen:
    """``make chaos-all`` in ``tree`` against that tree's own sources."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.Popen(
        ["make", "--no-print-directory", "-s", "chaos-all", f"PYTHON={sys.executable}"],
        cwd=tree, env=env,
    )


def differing_files(a: str, b: str, rel: str = "") -> list:
    """Paths under ``a`` and ``b`` that are in one tree only or differ."""
    cmp = filecmp.dircmp(os.path.join(a, rel), os.path.join(b, rel))
    out = [os.path.join(rel, name) + " (base only)" for name in cmp.left_only]
    out += [os.path.join(rel, name) + " (working tree only)" for name in cmp.right_only]
    out += [os.path.join(rel, name) + " (type differs)" for name in cmp.common_funny]
    _same, mismatch, errors = filecmp.cmpfiles(
        cmp.left, cmp.right, cmp.common_files, shallow=False)
    out += [os.path.join(rel, name) for name in mismatch + errors]
    for sub in cmp.common_dirs:
        out += differing_files(a, b, os.path.join(rel, sub))
    return sorted(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git ref to compare the working tree against")
    args = parser.parse_args(argv)
    with checkout(args.base, "chaos-diff-") as (commit, base):
        print(f"make chaos-all: base = {args.base} ({commit[:12]}), "
              f"working tree = {ROOT}", flush=True)
        shutil.rmtree(os.path.join(ROOT, ARTIFACTS), ignore_errors=True)
        runs = {"base": start_sweeps(base), "working tree": start_sweeps(ROOT)}
        status = 0
        for side, run in runs.items():
            if run.wait() != 0:
                print(f"{side}: a chaos sweep or re-audit FAILED "
                      f"(make chaos-all exited {run.returncode})")
                status = 1
        differing = differing_files(
            os.path.join(base, ARTIFACTS), os.path.join(ROOT, ARTIFACTS))
    for path in differing:
        print(f"differs: {ARTIFACTS}/{path}")
    print(f"{len(differing)} differing file(s) under {ARTIFACTS}/")
    return 1 if differing or status else 0


if __name__ == "__main__":
    sys.exit(main())
