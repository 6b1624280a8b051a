"""What only the traced run produces: spans, host shares, oracle verdict.

Still outside-in: benchmark-side spans come from the driver's own call
instants, host attribution from cProfile grouped by source path, and the
correctness verdict from the program's public oracles.
"""

from __future__ import annotations

import os
import pstats
from typing import Dict, List

import repro
from repro.check import SerializabilityChecker, SIChecker

from extract import GateFailure
from loadgen import LoadRun, call_names
from spec import HOST_SHARE_GROUPS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
PROGRAM_DIR = os.path.dirname(os.path.abspath(repro.__file__))

_SIM_FILES = {"kernel", "equeue", "events", "process", "node", "network",
              "resource", "disk"}
_PACKAGES = {"zk", "dfs", "storage", "kvstore", "txn", "core", "metrics", "check"}


def _group_of(filename: str) -> str:
    """The host-share group a profiled function's source file belongs to."""
    if filename.startswith(BENCH_DIR + os.sep):
        return "bench"
    if not filename.startswith(PROGRAM_DIR + os.sep):
        return "python"  # builtins ('~'), the standard library
    parts = filename[len(PROGRAM_DIR) + 1:].split(os.sep)
    if parts[0] == "sim":
        stem = os.path.splitext(parts[-1])[0]
        return f"sim.{stem}" if stem in _SIM_FILES else "sim.other"
    if parts[0] in _PACKAGES:
        return parts[0]
    return "cluster"  # cluster.py, config.py, errors.py, workload/


def host_shares(profile) -> Dict[str, float]:
    """Share of profiled self time (``tottime``) per package; sums to 1.

    A function's self time excludes its callees by construction, so a
    layer is charged only for the instructions in its own files.
    """
    totals = {group: 0.0 for group in HOST_SHARE_GROUPS}
    for (filename, _line, _func), stat in pstats.Stats(profile).stats.items():
        totals[_group_of(filename)] += stat[2]
    whole = sum(totals.values())
    return {f"host_share.{g}": t / whole for g, t in totals.items()}


def bench_spans(run: LoadRun) -> List[dict]:
    """Benchmark-side spans: one root per transaction, one child per call."""
    spans: List[dict] = []
    for rec in run.records:
        if rec.end is None:
            continue
        txn = f"{run.handle.client_id}#{rec.index}"
        root = len(spans)
        spans.append({"id": root, "parent": None, "txn": txn, "name": "txn",
                      "start": rec.due, "end": rec.end, "outcome": rec.outcome})
        calls = call_names(run.source[rec.index])
        stages = [("workload.queue_wait", rec.due, rec.start)]
        prev = rec.start
        for name, mark in zip(calls, rec.marks):
            stages.append((name, prev, mark))
            prev = mark
        if len(rec.marks) < len(calls):  # the call that aborted or failed
            stages.append((calls[len(rec.marks)], prev, rec.end))
        for name, start, end in stages:
            spans.append({"id": len(spans), "parent": root, "txn": txn,
                          "name": name, "start": start, "end": end})
    return spans


def oracle_verdict(cluster, spec) -> dict:
    """Run the program's oracles over the traced run's recorded history.

    An anomaly in what transactions observed (SIChecker, and the
    serialization-graph check in the workload's isolation mode) fails the
    run.  Violations of the online threshold invariants are counted and
    reported as ``check.invariant_violations``, not gated: at the seed
    commit ``contended_xshard_ssi`` trips ``tf_le_pending`` (see README.md),
    and a benchmark that cannot run cannot show the fix.
    """
    recorder, monitor = cluster.history_recorder, cluster.invariant_monitor
    monitor.check_once()
    reports = [
        SIChecker(recorder.events).check(),
        SerializabilityChecker(recorder.events, mode=spec.isolation).check(),
    ]
    anomalies = [str(a) for report in reports for a in report.anomalies]
    if anomalies:
        raise GateFailure(f"oracle: {len(anomalies)} anomalies; first: {anomalies[0]}")
    by_kind: Dict[str, int] = {}
    for violation in monitor.violations:
        by_kind[violation["kind"]] = by_kind.get(violation["kind"], 0) + 1
    return {
        "history_events": len(recorder),
        "monitor_samples": monitor.samples,
        "txns_checked": reports[0].counters.get("txns", 0),
        "reads_checked": reports[0].counters.get("reads_checked", 0),
        "invariant_violations": len(monitor.violations),
        "invariant_violations_by_kind": by_kind,
        "first_invariant_violation": (
            monitor.violations[0]["detail"] if monitor.violations else None
        ),
    }
