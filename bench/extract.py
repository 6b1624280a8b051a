"""Turn one finished :class:`loadgen.LoadRun` into named numbers.

Everything here reads the program from outside: the driver's own call
instants, the public ``metrics_snapshot()`` / ``storage_stats()`` counters
taken at the two edges of the measured window, and the public span list
of ``tracer_for(kernel)``.  All results of :func:`simulated` use the
simulated clock or deterministic counters, so for one seed they must be
bit-identical on every repeat -- run.py checks exactly that.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional

from repro.metrics.spans import tracer_for

from loadgen import (
    ABORTED, COMMITTED, ERROR, TIMED_CALLS, UNFINISHED, LoadRun, RegionMap,
    call_names, percentile,
)

#: Tolerance of the two "sums to" identities (float rounding only).
SUM_TOLERANCE = 1e-9


class GateFailure(Exception):
    """A correctness or determinism gate did not hold."""


# ----------------------------------------------------------------------
# counters at the window edges
# ----------------------------------------------------------------------

def counters(cluster) -> Dict[str, float]:
    """Flat, summed view of the public counters the layer metrics use."""
    out: Dict[str, float] = {}

    def add(key: str, value) -> None:
        out[key] = out.get(key, 0) + value

    for name, comp in cluster.metrics_snapshot()["components"].items():
        kind = name.split(":", 1)[0]
        for counter, value in comp["counters"].items():
            if isinstance(value, (int, float)):
                add(f"{kind}.{counter}", value)
    datanodes = {dn.addr for dn in cluster.datanodes}
    for disk, stats in cluster.storage_stats()["disks"].items():
        layer = "dfs" if disk in datanodes else "tmlog"
        add(f"{layer}.syncs", stats["syncs"])
        add(f"{layer}.bytes_written", stats["bytes_written"])
    return out


# ----------------------------------------------------------------------
# simulated results (deterministic for a seed)
# ----------------------------------------------------------------------

def simulated(run: LoadRun, before: Dict[str, float], after: Dict[str, float],
              regions: RegionMap, dead_server: str) -> Dict[str, float]:
    """Every simulated-clock and count metric of one run, by name."""
    spec = run.spec
    measured = run.measured()
    committed = [r for r in measured if r.outcome == COMMITTED]
    n = len(committed)
    attempted = run.attempted()
    if n == 0:
        raise GateFailure("no transaction committed in the measured window")
    lat = sorted(r.end - r.due for r in committed)
    events = sum(run.slice_events)

    out: Dict[str, float] = {
        "attempted": attempted,
        "committed": n,
        "aborted": sum(1 for r in measured if r.outcome == ABORTED),
        "errors": sum(1 for r in measured if r.outcome == ERROR),
        "unserved": attempted - sum(1 for r in measured if r.outcome != UNFINISHED),
        "bad_values": run.bad_values,
        "events": events,
        # end to end
        "txn_p50_ms": percentile(lat, 50) * 1000,
        "txn_p99_ms": percentile(lat, 99) * 1000,
        "goodput_tps": n / spec.measured_s,
        "committed_share": n / attempted,
        "events_per_txn": events / n,
    }
    out.update(_stages(run, committed))
    out.update(_span_stages(run))
    out.update(_count_metrics(run, before, after, n))
    out.update(_threshold_lag(run))
    out.update(_failover(run, regions, dead_server))
    return out


def _stages(run: LoadRun, committed) -> Dict[str, float]:
    """Per-call stage times from the driver's own call instants."""
    wait = "workload.queue_wait"
    calls = {name: [] for name in (wait, "txn.begin", "kvstore.read", "kvstore.scan", "txn.commit")}
    per_txn = dict.fromkeys(calls, 0.0)
    total_latency = 0.0
    for rec in committed:
        prev = rec.due
        for name, mark in zip([wait] + call_names(run.source[rec.index]),
                              [rec.start] + rec.marks):
            took = mark - prev
            calls[name].append(took)
            per_txn[name] += took
            prev = mark
        total_latency += rec.end - rec.due
    n = len(committed)
    ratio = sum(per_txn.values()) / total_latency
    if abs(ratio - 1.0) > SUM_TOLERANCE:
        raise GateFailure(f"stage times sum to {ratio!r} of the latency, not 1.0")
    out = {
        "workload.txn_mean_ms": total_latency / n * 1000,
        "workload.stage_sum_ratio": ratio,
        "workload.queue_wait_p99_ms": percentile(sorted(calls.pop(wait)), 99) * 1000,
    }
    for name, total in per_txn.items():
        out[f"{name}_per_txn_ms"] = total / n * 1000
    for name, values in calls.items():
        values.sort()
        out[f"{name}_p50_ms"] = percentile(values, 50) * 1000
        out[f"{name}_p99_ms"] = percentile(values, 99) * 1000
        out[f"n.{name}"] = len(values)
    return out


def _span_stages(run: LoadRun) -> Dict[str, float]:
    """Means of the program's own spans that started in the window."""
    lo, hi = run.t_measure, run.t_end
    durations: Dict[str, List[float]] = {}
    for span in tracer_for(run.kernel).spans():
        if lo <= span.start < hi:
            durations.setdefault(span.stage, []).append(span.end_time - span.start)

    def mean_ms(stage: str) -> float:
        values = durations.get(stage)
        return sum(values) / len(values) * 1000 if values else 0.0

    flush = sorted(durations.get("flush.writeset", []))
    return {
        "flush_lag_p99_ms": percentile(flush, 99) * 1000,
        "n.flush_lag": len(flush),
        "txn.certify_ms": mean_ms("commit.certify"),
        "txn.log_append_ms": mean_ms("commit.log_append"),
        "txn.group_sync_ms": mean_ms("log.group_sync"),
        "txn.commit_reply_ms": mean_ms("commit.reply"),
        "kvstore.flush_region_ms": mean_ms("flush.region"),
        "kvstore.rs_apply_ms": mean_ms("rs.apply"),
        "kvstore.wal_sync_ms": mean_ms("wal.sync"),
    }


def _count_metrics(run: LoadRun, before, after, n: int) -> Dict[str, float]:
    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    decided = delta("tm.commits") + delta("tm.aborts")
    return {
        "sim.net_msgs_per_txn": delta("network.messages_sent") / n,
        "sim.rpc_retries_per_txn": delta("network.rpc_retries") / n,
        "sim.msgs_dropped": delta("network.messages_dropped"),
        "txn.commits_per_log_sync": ratio(delta("tm.commits"), delta("tmlog.syncs")),
        "txn.log_bytes_per_txn": delta("tmlog.bytes_written") / n,
        "txn.conflict_abort_ratio": ratio(delta("tm.aborts"), decided),
        "txn.ssi_abort_ratio": ratio(delta("tm.ssi_aborts"), decided),
        "txn.xshard_commit_share": ratio(delta("tm.cross_shard_commits"), delta("tm.commits")),
        "kvstore.gets_per_txn": delta("regionserver.gets") / n,
        "kvstore.flush_fragments_per_txn": delta("kv_client.flush_fragments") / n,
        "dfs.syncs_per_txn": delta("dfs.syncs") / n,
        "dfs.bytes_written_per_txn": delta("dfs.bytes_written") / n,
        "core.truncation_requests": delta("rm.truncation_requests"),
        "core.regions_recovered": delta("rm.server_region_recoveries"),
        "core.replayed_fragments": delta("rm.replayed_fragments"),
    }


def _threshold_lag(run: LoadRun) -> Dict[str, float]:
    """Mean age of the newest commit at or below global T_F / T_P."""
    by_ts = sorted((r.commit_ts, r.end) for r in run.records if r.commit_ts is not None)
    stamps = [ts for ts, _ in by_ts]
    lags = {"tf": [], "tp": []}
    for t, tf, tp in run.threshold_samples:
        for key, threshold in (("tf", tf), ("tp", tp)):
            k = bisect_right(stamps, threshold)
            if k:
                lags[key].append(t - by_ts[k - 1][1])
    return {
        f"core.{key}_lag_s": (sum(v) / len(v) if v else 0.0)
        for key, v in lags.items()
    }


# ----------------------------------------------------------------------
# failover critical path
# ----------------------------------------------------------------------

FAILOVER_STAGES = (
    "zk.failover_detect_s",
    "kvstore.failover_plan_s",
    "kvstore.failover_wal_replay_s",
    "core.failover_log_fetch_s",
    "core.failover_tmlog_replay_s",
    "kvstore.failover_gate_open_s",
    "workload.failover_first_served_s",
)


def _failover(run: LoadRun, regions: RegionMap, dead_server: str) -> Dict[str, float]:
    """unavail_s, catchup_s and the telescoping stage boundaries."""
    out = {name: 0.0 for name in FAILOVER_STAGES}
    out["workload.unavail_s"] = 0.0
    out["workload.catchup_s"] = 0.0
    crash = run.crash_time
    if crash is None:
        return out
    dead = regions.hosted_by(dead_server)

    def dead_regions_of(rec) -> set:
        # Reads only: writes are buffered at the client and flushed after
        # commit, so they do not wait for the region to come back.
        return {
            regions.region_of(row)
            for kind, row, _limit in run.source[rec.index]
            if kind in TIMED_CALLS
        } & dead

    # unavail_s: crash -> first commit of a transaction due after the
    # crash that reads from a region the dead server hosted.
    first = None
    for rec in run.records:
        if rec.outcome == COMMITTED and rec.due > crash and (
            first is None or rec.end < first.end
        ) and dead_regions_of(rec):
            first = rec
    if first is None:
        raise GateFailure("no transaction was served by a recovered region")
    unavail = first.end - crash
    out["workload.unavail_s"] = unavail

    # catchup_s: crash -> the open-loop backlog is empty again, i.e. the
    # pick-up instant of the last arrival of the first post-crash run of
    # arrivals that had to queue.
    post = [r for r in run.records if r.due > crash]
    k = next((i for i, r in enumerate(post) if r.late), None)
    if k is not None:
        while k + 1 < len(post) and post[k + 1].late:
            k += 1
        if k + 1 == len(post):
            raise GateFailure("the open-loop backlog never drained")
        out["workload.catchup_s"] = post[k].start - crash

    # Stage boundaries: crash (ours), then the program's recovery.* spans
    # for the critical region -- of the dead regions the first-served
    # transaction touched, the one whose gate opened last -- then the
    # first-served instant (ours).
    spans = [s for s in tracer_for(run.kernel).spans() if s.stage.startswith("recovery.")]

    def one(stage: str, region: Optional[str] = None):
        found = [
            s for s in spans
            if s.stage == stage and s.start >= crash
            and (region is None or s.tags.get("region") == region)
        ]
        if not found:
            raise GateFailure(f"no {stage} span for {region or dead_server}")
        return min(found, key=lambda s: s.start)

    critical = max(
        dead_regions_of(first),
        key=lambda region: (one("recovery.region_gate", region).end_time, region),
    )
    boundaries = [
        crash,
        one("recovery.failover").start,
        one("recovery.plan").end_time,
        one("recovery.fragment_replay", critical).end_time,
        one("recovery.log_fetch", critical).end_time,
        one("recovery.replay", critical).end_time,
        one("recovery.region_gate", critical).end_time,
        first.end,
    ]
    total = 0.0
    for name, a, b in zip(FAILOVER_STAGES, boundaries, boundaries[1:]):
        if b < a:
            raise GateFailure(f"failover boundary before {name} runs backwards")
        out[name] = b - a
        total += b - a
    if abs(total - unavail) > SUM_TOLERANCE:
        raise GateFailure(
            f"failover stages sum to {total!r}, unavail_s is {unavail!r}"
        )
    return out
