"""The benchmark's contract: workloads, metric catalogue, regression bounds.

Everything here is data.  ``BENCHMARK.json`` at the repository root is the
driver-facing copy of the names, units and bounds below; ``test_bench.py``
asserts the two agree.

Two clocks, always named (the ``clock`` field of every metric):

* ``sim``   -- simulated seconds, what the modelled cluster takes.
  Deterministic for a seed: identical on every run and every machine.
* ``host``  -- seconds of the Python process.  Noisy.
* ``count`` -- a ratio of deterministic counters; repeats exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

OPEN = "open"      # arrivals on a schedule; latency timed from the due time
CLOSED = "closed"  # N sessions, zero think time


@dataclass(frozen=True)
class WorkloadSpec:
    """One frozen set of inputs and load."""

    name: str
    why: str
    # -- data and transaction shape ------------------------------------
    rows: int = 50_000
    ops_per_txn: int = 10
    #: Operation mix, fractions of (read, update, insert, scan); sums to 1.
    mix: Tuple[float, float, float, float] = (0.5, 0.5, 0.0, 0.0)
    #: Key distribution: "uniform" or "zipfian" (scrambled over the table).
    key_dist: str = "uniform"
    zipf_theta: float = 0.0
    max_scan_rows: int = 50
    # -- load ------------------------------------------------------------
    loop: str = OPEN
    rate_tps: float = 0.0        # open loop only
    sessions: int = 50
    duration_s: float = 20.0     # simulated; arrivals are offered in [0, duration)
    warmup_s: float = 2.0        # simulated; excluded from every metric
    drain_s: float = 3.0         # simulated; in-flight transactions may finish
    crash_at_s: Optional[float] = None  # crash_server(0) at t0 + this
    #: Host seconds one repeat's measured window took at the seed commit on
    #: the 2-core sandbox.  Only turns ``--seconds`` into a repeat count, so
    #: that count is the same on every machine.
    nominal_host_s: float = 3.3
    # -- cluster (paper section 4.1 unless stated) --------------------------
    servers: int = 2
    regions: int = 8
    tm_shards: int = 1
    isolation: str = "si"

    @property
    def measured_s(self) -> float:
        """Simulated seconds covered by the metrics."""
        return self.duration_s - self.warmup_s


#: Sizes were tuned once at the seed commit so one repeat costs about
#: 2-7 host seconds on the 2-core sandbox (the driver allows 30 s per
#: invocation on average, and an invocation needs at least two repeats for
#: the determinism gate), then frozen.  Every workload commits more than
#: 1,000 measured transactions, so p99 has at least ten samples beyond it.
WORKLOADS: Dict[str, WorkloadSpec] = {
    w.name: w
    for w in (
        WorkloadSpec(
            name="steady_paced",
            why="Paper 4.1 at 37% load, open loop 200 tps: the baseline; "
                "failover, scan and contention changes must not move it.",
            loop=OPEN, rate_tps=200.0, sessions=50, duration_s=20.0,
            nominal_host_s=3.1,
        ),
        WorkloadSpec(
            name="saturated_closed",
            why="Same cluster, 50 closed-loop sessions: capacity and queueing "
                "at server workers and the group-commit window; batching and "
                "transport changes show here.",
            loop=CLOSED, sessions=50, duration_s=8.0, nominal_host_s=4.2,
        ),
        WorkloadSpec(
            name="failover_paced",
            why="Open loop 150 tps with crash_server(0) mid-run: detection, WAL "
                "split, TM-log replay and the region gate do the work; arrivals "
                "due in the outage are timed, not skipped.",
            loop=OPEN, rate_tps=150.0, sessions=50, duration_s=34.0,
            crash_at_s=6.0, nominal_host_s=4.3,
        ),
        WorkloadSpec(
            name="scan_mix",
            why="20k rows, 60% short zipfian scans beside reads, updates and "
                "inserts at 40 tps: host time sits in kvstore, not the kernel; "
                "writes ride along so a scan index that slows apply shows.",
            rows=20_000, ops_per_txn=4, mix=(0.2, 0.15, 0.05, 0.6),
            key_dist="zipfian", zipf_theta=0.99, max_scan_rows=50,
            loop=OPEN, rate_tps=40.0, sessions=16, duration_s=28.0,
            nominal_host_s=4.6,
        ),
        WorkloadSpec(
            name="contended_xshard_ssi",
            why="2 TM shards, SSI, zipfian keys, closed loop: the cross-shard "
                "commit and certification path dominates latency and a sixth "
                "of transactions abort on conflicts.",
            key_dist="zipfian", zipf_theta=0.6,
            loop=CLOSED, sessions=50, duration_s=12.0,
            tm_shards=2, isolation="ssi", nominal_host_s=2.4,
        ),
    )
}

#: ``--quick`` overrides (about 3 simulated seconds per workload; the
#: failover needs the 5.3 s outage plus a catch-up, at a rate low enough
#: to drain within the run).  Used by test_bench.py, never for results.
QUICK_OVERRIDES: Dict[str, dict] = {
    "steady_paced": dict(duration_s=3.5, warmup_s=0.5),
    "saturated_closed": dict(duration_s=2.0, warmup_s=0.5, sessions=20),
    "failover_paced": dict(
        duration_s=11.0, warmup_s=0.5, crash_at_s=1.0, rate_tps=60.0,
        sessions=20,
    ),
    "scan_mix": dict(duration_s=3.5, warmup_s=0.5),
    "contended_xshard_ssi": dict(duration_s=2.5, warmup_s=0.5, sessions=20),
}


def workload(name: str, quick: bool = False) -> WorkloadSpec:
    """The spec for ``name`` (its ``--quick`` variant when asked)."""
    spec = WORKLOADS[name]
    if quick:
        spec = replace(spec, **QUICK_OVERRIDES[name])
    return spec


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Metric:
    """One named number: where its time comes from and what it means."""

    name: str
    clock: str          # "sim" | "host" | "count"
    unit: str
    better: str         # "lower" | "higher"
    definition: str
    bound: Optional[float] = None   # end-to-end only: share of the parent's median
    moves: str = ""     # per-layer only: which end-to-end metric it should move


#: End-to-end metrics, reported by every workload (``--trace 0``).
#: ``bound`` is how much worse the median may get before compare.py (and
#: the driver) call it a regression.
END_TO_END: List[Metric] = [
    Metric("txn_p50_ms", "sim", "ms", "lower",
           "due time -> commit() return, committed transactions, median", 0.05),
    Metric("txn_p99_ms", "sim", "ms", "lower",
           "same, 99th percentile; on failover_paced this is the outage tail", 0.20),
    Metric("goodput_tps", "sim", "1/s", "higher",
           "committed / measured simulated seconds", 0.08),
    Metric("committed_share", "count", "ratio", "higher",
           "committed / attempted; conflict aborts, errors and arrivals still "
           "unserved at the end of the run all count against it "
           "(= 1 - failed_share)", 0.08),
    Metric("flush_lag_p99_ms", "sim", "ms", "lower",
           "commit() return -> write-set flushed (flush.writeset span), the "
           "window in which a commit lives only in the TM log; p99", 0.25),
    Metric("events_per_txn", "count", "events", "lower",
           "kernel events in the measured window / committed", 0.05),
    Metric("host_txn_per_s", "host", "1/s", "higher",
           "committed / host seconds of the measured window at reference "
           "speed (hostclock.py); per half simulated second the fastest of "
           "the k repeats is taken (the simulated work in a slice is "
           "identical in every repeat)", 0.25),
    Metric("peak_rss_mb", "host", "MB", "lower",
           "ru_maxrss of the workload process", 0.10),
    Metric("setup_s", "host", "s", "lower",
           "first statement of run.py -> cluster built, preloaded, caches "
           "warm, inputs generated, at reference speed (hostclock.py); repro "
           "re-imported and the cluster rebuilt several times, median", 0.25),
]

#: End-to-end metrics that exist on one workload only.  The driver's schema
#: wants every end-to-end metric from every workload and never zero, so
#: these travel as per-layer metrics ``workload.<name>`` there; compare.py
#: gates them with the bounds below all the same.
WORKLOAD_END_TO_END: List[Tuple[str, Metric]] = [
    ("failover_paced", Metric(
        "unavail_s", "sim", "s", "lower",
        "crash instant -> first commit of a transaction that was due after "
        "the crash and reads from a region the dead server hosted (writes "
        "are buffered at the client and do not wait for the region)", 0.05)),
    ("failover_paced", Metric(
        "catchup_s", "sim", "s", "lower",
        "crash instant -> first moment the open-loop backlog is empty again",
        0.10)),
]

HOST_SHARE_GROUPS = (
    "sim.kernel", "sim.equeue", "sim.events", "sim.process", "sim.node",
    "sim.network", "sim.resource", "sim.disk", "sim.other", "zk", "dfs",
    "storage", "kvstore", "txn", "core", "metrics", "check", "cluster",
    "bench", "python",
)

MICRO_BENCHES = (
    ("sim.equeue_calendar_push_pop_per_s", "host_share.sim.equeue"),
    ("sim.equeue_heap_push_pop_per_s", "host_share.sim.equeue"),
    ("sim.kernel_timer_events_per_s", "host_share.sim.kernel"),
    ("sim.network_rpc_roundtrips_per_s", "host_share.sim.network, sim.node"),
    ("sim.node_call_batch_items_per_s", "host_share.sim.node"),
    ("txn.certify_si_per_s", "host_share.txn"),
    ("txn.certify_ssi_per_s", "host_share.txn"),
    ("txn.log_append_per_s", "host_share.txn"),
    ("kvstore.wal_append_per_s", "host_share.kvstore"),
    ("kvstore.memstore_put_per_s", "host_share.kvstore"),
    ("kvstore.sstable_parse_rows_per_s", "host_share.kvstore"),
    ("kvstore.scan_rows_per_s", "host_share.kvstore"),
    ("storage.frame_roundtrip_per_s", "host_share.storage"),
    ("metrics.span_per_s", "host_share.metrics"),
    ("check.sichecker_txn_per_s", "host_share.check"),
    ("check.serializability_txn_per_s", "host_share.check"),
)


def _per_layer() -> List[Metric]:
    m: List[Metric] = []
    lat = "txn_p50_ms, txn_p99_ms"

    # Simulated stage times, timed by the driver at the call site.
    m.append(Metric("workload.txn_mean_ms", "sim", "ms", "lower",
                    "mean due -> commit() return; the five per_txn stages sum to it", moves=lat))
    m.append(Metric("workload.stage_sum_ratio", "count", "ratio", "higher",
                    "sum of the five per-transaction stages / sum of latencies; must be 1.0"))
    for name, what in (
        ("workload.queue_wait_per_txn_ms", "due time -> a session picks the arrival up"),
        ("txn.begin_per_txn_ms", "TxnClient.begin"),
        ("kvstore.read_per_txn_ms", "all TxnClient.read calls of the transaction"),
        ("kvstore.scan_per_txn_ms", "all TxnClient.scan calls of the transaction"),
        ("txn.commit_per_txn_ms", "TxnClient.commit"),
    ):
        m.append(Metric(name, "sim", "ms", "lower",
                        f"mean per committed transaction: {what}", moves=lat))
    for name, what in (
        ("txn.begin", "TxnClient.begin call"),
        ("kvstore.read", "TxnClient.read call"),
        ("kvstore.scan", "TxnClient.scan call"),
        ("txn.commit", "TxnClient.commit call"),
    ):
        for p in ("p50", "p99"):
            m.append(Metric(f"{name}_{p}_ms", "sim", "ms", "lower",
                            f"{p} of one {what}", moves=lat))
    m.append(Metric("workload.queue_wait_p99_ms", "sim", "ms", "lower",
                    "p99 wait for a free session", moves="txn_p99_ms"))
    # From the program's own span summaries (measured window only).
    for name, stage, moves in (
        ("txn.certify_ms", "commit.certify", lat),
        ("txn.log_append_ms", "commit.log_append", lat),
        ("txn.group_sync_ms", "log.group_sync", lat),
        ("txn.commit_reply_ms", "commit.reply", lat),
        ("kvstore.flush_region_ms", "flush.region", "flush_lag_p99_ms"),
        ("kvstore.rs_apply_ms", "rs.apply", "flush_lag_p99_ms"),
        ("kvstore.wal_sync_ms", "wal.sync", "flush_lag_p99_ms"),
    ):
        m.append(Metric(name, "sim", "ms", "lower",
                        f"mean duration of the program's {stage} spans", moves=moves))

    # Failover critical path (failover_paced only; 0 elsewhere).
    fo = "unavail_s, catchup_s"
    m.append(Metric("workload.unavail_s", "sim", "s", "lower",
                    "the end-to-end unavail_s (see WORKLOAD_END_TO_END)", moves="itself"))
    m.append(Metric("workload.catchup_s", "sim", "s", "lower",
                    "the end-to-end catchup_s (see WORKLOAD_END_TO_END)", moves="itself"))
    for name, what in (
        ("zk.failover_detect_s", "crash -> master notices (recovery.failover span start)"),
        ("kvstore.failover_plan_s", "noticed -> recovery.plan span end (RM hook, WAL listing, partition)"),
        ("kvstore.failover_wal_replay_s", "plan end -> critical region's recovery.fragment_replay end"),
        ("core.failover_log_fetch_s", "-> critical region's recovery.log_fetch end (gate request + TM-log fetch)"),
        ("core.failover_tmlog_replay_s", "-> critical region's recovery.replay end"),
        ("kvstore.failover_gate_open_s", "-> critical region's recovery.region_gate end"),
        ("workload.failover_first_served_s", "-> first commit of a transaction due after the crash that reads a dead region"),
    ):
        m.append(Metric(name, "sim", "s", "lower",
                        f"failover stage: {what}; the seven stages sum to unavail_s", moves=fo))
    m.append(Metric("core.regions_recovered", "count", "count", "lower",
                    "rm server_region_recoveries", moves=fo))
    m.append(Metric("core.replayed_fragments", "count", "count", "lower",
                    "rm replayed_fragments", moves="core.failover_tmlog_replay_s"))

    # Counts per committed transaction, from public counters.
    ev = "events_per_txn, host_txn_per_s"
    for name, unit, what, moves in (
        ("sim.net_msgs_per_txn", "count", "network messages_sent / committed", ev),
        ("sim.rpc_retries_per_txn", "count", "network rpc_retries / committed", ev),
        ("sim.msgs_dropped", "count", "network messages_dropped in the window", ev),
        ("sim.idle_events_per_sim_s", "1/s", "same cluster, zero clients, 30 simulated s: the polling floor", ev),
        ("txn.commits_per_log_sync", "count", "TM commits / TM-log disk syncs", ev),
        ("txn.log_bytes_per_txn", "B", "TM-log bytes written / committed", ev),
        ("txn.conflict_abort_ratio", "ratio", "TM aborts / (commits + aborts)", "committed_share, goodput_tps"),
        ("txn.ssi_abort_ratio", "ratio", "TM ssi_aborts / (commits + aborts)", "committed_share, goodput_tps"),
        ("txn.xshard_commit_share", "ratio", "cross_shard_commits / commits", lat),
        ("kvstore.gets_per_txn", "count", "region-server gets / committed", ev),
        ("kvstore.flush_fragments_per_txn", "count", "client flush fragments / committed", ev),
        ("dfs.syncs_per_txn", "count", "datanode disk syncs / committed", ev),
        ("dfs.bytes_written_per_txn", "B", "datanode bytes written / committed", ev),
        ("core.truncation_requests", "count", "rm truncation_requests in the window", ev),
        ("core.tf_lag_s", "s", "mean age of the newest commit <= global T_F, sampled each half simulated second", "core.replayed_fragments"),
        ("core.tp_lag_s", "s", "same for global T_P", "core.replayed_fragments"),
    ):
        clock = "sim" if unit == "s" else "count"
        m.append(Metric(name, clock, unit, "lower", what, moves=moves))

    # Host self-time by package (cProfile tottime by source path).
    for group in HOST_SHARE_GROUPS:
        m.append(Metric(f"host_share.{group}", "host", "ratio", "lower",
                        f"share of profiled self time in {group}; shares sum to 1",
                        moves="host_txn_per_s"))
    m.append(Metric("sim.events_per_host_s", "host", "1/s", "higher",
                    "kernel events / host seconds, measured window, untraced",
                    moves="host_txn_per_s"))
    m.append(Metric("check.invariant_violations", "count", "count", "lower",
                    "InvariantMonitor violations in the traced run (T_F/T_P "
                    "threshold safety, sampled every 0.25 simulated s); 0 "
                    "is the only good value", moves="nothing: a safety signal"))
    m.append(Metric("trace.overhead_ratio", "host", "ratio", "lower",
                    "traced host seconds / untraced host seconds"))
    m.append(Metric("trace.sim_drift", "count", "ratio", "lower",
                    "largest relative difference of a simulated end-to-end "
                    "metric between the traced and the untraced run"))

    # Micro-benches (micro.py): one layer's public entry point, host ops/s.
    for name, moves in MICRO_BENCHES:
        m.append(Metric(name, "host", "1/s", "higher",
                        "micro-bench, median of 5 short repetitions (see micro.py)",
                        moves=moves))
    return m


PER_LAYER: List[Metric] = _per_layer()

END_TO_END_NAMES = [m.name for m in END_TO_END]
PER_LAYER_NAMES = [m.name for m in PER_LAYER]
