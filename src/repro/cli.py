"""Command-line interface: run the simulated system from a terminal.

Five subcommands cover the common exploration paths without writing any
code::

    python -m repro demo                         # commit, crash, recover
    python -m repro workload --mix A --tps 200   # run a YCSB mix
    python -m repro failover --crash-at 40       # Figure-3-style timeline
    python -m repro chaos --seeds 8              # seed-swept fault storms
    python -m repro check history.json           # re-check a saved history

Every run prints its configuration and a deterministic seed, so anything
seen here can be reproduced exactly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key
from repro.metrics import ascii_chart, format_table, spans_table
from repro.workload import WORKLOADS, WorkloadDriver


def _add_cluster_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--rows", type=int, default=50_000, help="table rows")
    parser.add_argument("--servers", type=int, default=2, help="region servers")
    parser.add_argument("--regions", type=int, default=8, help="regions")
    parser.add_argument("--clients", type=int, default=50, help="client threads")
    parser.add_argument(
        "--sync-wal", action="store_true",
        help="synchronous store persistence (the fig2a baseline; disables "
             "the recovery middleware)",
    )
    parser.add_argument(
        "--tm-shards", type=int, default=1, metavar="N",
        help="partition the transaction manager into N shards (tm0..tmN-1, "
             "cross-shard commits via non-blocking 2PC; 1 = a lone TM "
             "owning every key)",
    )
    parser.add_argument(
        "--isolation", choices=("si", "ssi"), default="si",
        help="certification isolation level: si = snapshot isolation, "
             "ssi = serializable snapshot isolation (clients ship read-sets, "
             "the TM aborts rw-antidependency pivots at certification)",
    )


def _emit_metrics(cluster: SimCluster, path: Optional[str]) -> None:
    """Print the commit-path breakdown; optionally dump the snapshot.

    The snapshot is :meth:`SimCluster.metrics_snapshot` serialised with
    sorted keys, so two same-seed runs write byte-identical files.
    ``path`` of ``-`` writes the JSON to stdout instead of a file.
    """
    import json

    snapshot = cluster.metrics_snapshot()
    print(spans_table(snapshot["spans"], title="commit-path stages"))
    breakdown = snapshot["commit_breakdown"]
    e2e = breakdown.get("end_to_end")
    if e2e:
        print(
            f"commit p50 {e2e['p50'] * 1000:.3f} ms end-to-end; "
            f"stage p50 sum {breakdown['stage_p50_sum'] * 1000:.3f} ms "
            f"(ratio {breakdown.get('p50_ratio', float('nan')):.3f})"
        )
    if path is None:
        return
    payload = json.dumps(snapshot, indent=2, sort_keys=True)
    if path == "-":
        print(payload)
    else:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote metrics snapshot to {path}")


def _build(args: argparse.Namespace) -> SimCluster:
    config = ClusterConfig(seed=args.seed)
    config.workload.n_rows = args.rows
    config.workload.n_clients = args.clients
    config.kv.n_region_servers = args.servers
    config.kv.n_regions = args.regions
    config.txn.tm_shards = getattr(args, "tm_shards", 1)
    config.txn.isolation = getattr(args, "isolation", "si")
    if args.sync_wal:
        config.kv.wal_sync_mode = "sync"
        config.recovery.enabled = False
    cluster = SimCluster(config).start()
    print(
        f"cluster up: {args.servers} region servers, {args.rows} rows, "
        f"seed {args.seed}"
    )
    cluster.preload()
    cluster.warm_caches()
    return cluster


def cmd_demo(args: argparse.Namespace) -> int:
    """Commit transactions, crash a server, verify nothing was lost."""
    cluster = _build(args)
    client = cluster.add_client("cli")
    rows = list(range(0, args.rows, max(args.rows // 25, 1)))

    def write():
        """One multi-row update transaction."""
        ctx = yield from client.txn.begin()
        for i in rows:
            client.txn.write(ctx, TABLE, row_key(i), f"demo-{i}")
        yield from client.txn.commit(ctx)
        return ctx

    ctx = cluster.run(write())
    print(f"committed txn ts={ctx.commit_ts} over {len(rows)} rows")
    print("crashing rs0 ...")
    cluster.crash_server(0)
    cluster.run_until(cluster.kernel.now + 15.0)
    if args.sync_wal:
        print("recovery middleware disabled (--sync-wal): store-level replay only")
    else:
        rm = cluster.rm_status()
        print(
            f"recovered: {rm['server_region_recoveries']} regions, "
            f"{rm['replayed_fragments']} fragments replayed"
        )

    def read(i):
        """Snapshot-read one row."""
        c = yield from client.txn.begin()
        return (yield from client.txn.read(c, TABLE, row_key(i)))

    lost = [i for i in rows if cluster.run(read(i)) != f"demo-{i}"]
    print("result:", "NO DATA LOST" if not lost else f"LOST {len(lost)} rows")
    return 1 if lost else 0


def cmd_workload(args: argparse.Namespace) -> int:
    """Run a workload mix and print the summary."""
    cluster = _build(args)
    recorder = None
    if args.check or args.history_json:
        recorder = cluster.attach_history_recorder()
    driver = WorkloadDriver(cluster, mix=None if args.mix == "paper" else args.mix)
    print(
        f"running workload {args.mix!r} for {args.duration:.0f}s "
        f"({'closed loop' if not args.tps else f'{args.tps:.0f} tps offered'})"
    )
    warmup = min(args.warmup, args.duration / 3.0)  # keep a measured window
    result = driver.run(
        duration=args.duration, target_tps=args.tps, warmup=warmup
    )
    summary = result.summary()
    print(format_table(
        ["metric", "value"],
        sorted(summary.items()),
        title="workload summary",
    ))
    _emit_metrics(cluster, args.metrics_json)
    rc = 0
    if recorder is not None:
        if args.history_json:
            meta = dict(seed=args.seed, mix=args.mix)
            if args.isolation != "si":
                # Only non-default modes are stamped: default SI history
                # files stay byte-identical to the pre-SSI format.
                meta["isolation"] = args.isolation
            recorder.write(args.history_json, **meta)
            print(f"wrote {len(recorder)} history events to {args.history_json}")
        if args.check:
            from repro.check import SerializabilityChecker, SIChecker

            report = SIChecker(recorder.events).check()
            print(f"oracle: {report.summary()}")
            for anomaly in report.anomalies:
                print(f"  anomaly: {anomaly}")
            if not report.ok:
                rc = 1
            from repro.check.serializability import graph_summary

            ser = SerializabilityChecker(
                recorder.events, mode=args.isolation
            ).check()
            print(
                f"serializability ({args.isolation} audit): "
                f"{graph_summary(ser)}"
            )
            for anomaly in ser.anomalies:
                print(f"  anomaly: {anomaly}")
            if not ser.ok:
                rc = 1
    return rc


def cmd_check(args: argparse.Namespace) -> int:
    """Re-run the consistency oracle over a saved history file.

    Always runs the SI checker plus the serializability checker; the
    latter's audit mode follows the history's recorded isolation
    metadata (SI histories get the lenient rw-cycle-only audit, SSI
    histories must be fully acyclic), overridable with ``--mode``.
    """
    from repro.check import SerializabilityChecker, SIChecker, load_history_doc
    from repro.check.serializability import graph_summary

    doc = load_history_doc(args.history)
    events = doc["events"]
    mode = args.mode or doc.get("isolation", "si")
    print(
        f"loaded {len(events)} events from {args.history} "
        f"(serializability audit mode: {mode})"
    )
    rc = 0
    report = SIChecker(events).check()
    print(report.summary())
    for anomaly in report.anomalies:
        print(f"  anomaly: {anomaly}")
    if not report.ok:
        rc = 1
    ser = SerializabilityChecker(events, mode=mode).check()
    print(f"serializability: {graph_summary(ser)}")
    for anomaly in ser.anomalies:
        print(f"  anomaly: {anomaly}")
    if not ser.ok:
        rc = 1
    return rc


def cmd_failover(args: argparse.Namespace) -> int:
    """Figure-3-style timeline with a mid-run server crash."""
    cluster = _build(args)
    driver = WorkloadDriver(cluster)
    start = cluster.kernel.now
    cluster.after(args.crash_at, lambda: cluster.crash_server(0))
    print(
        f"running {args.duration:.0f}s at {args.tps:.0f} tps, "
        f"crashing rs0 at t={args.crash_at:.0f}s"
    )
    result = driver.run(duration=args.duration, target_tps=args.tps)
    tps_series = [(t - start, v) for t, v in result.throughput_ts.rate_series()]
    lat_series = [
        (t - start, None if v is None else v * 1000)
        for t, v in result.latency_ts.mean_series()
    ]
    print(ascii_chart(tps_series, title="throughput (tps)", y_label="time (s)"))
    print()
    print(ascii_chart(lat_series, title="response time (ms)", y_label="time (s)"))
    print()
    print(format_table(["metric", "value"], sorted(result.summary().items())))
    rm = cluster.rm_status()
    print(
        f"recovery: {rm['server_region_recoveries']} regions, "
        f"{rm['replayed_fragments']} fragments replayed"
    )
    _emit_metrics(cluster, args.metrics_json)
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Seed-swept chaos storms auditing the durability guarantee."""
    import dataclasses
    import gc
    import json
    import os

    from repro.metrics import storage_table
    from repro.sim.chaos import ChaosSettings, run_chaos

    seeds = [args.seed] if args.seed is not None else list(range(1, args.seeds + 1))
    if not seeds:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return 2
    # The flags compose.  --isolation ssi means a sharded TM (at least 2
    # shards), so certification survives losing the node that holds the
    # SSI window.
    settings = ChaosSettings(
        disk_faults=args.disk_faults,
        kill_during_recovery=args.kill_during_recovery,
        tm_shards=max(args.tm_shards, 2 if args.isolation == "ssi" else 1),
        isolation=args.isolation,
    )
    print(
        f"chaos sweep over {len(seeds)} seed(s): loss, duplication, delay "
        f"spikes, partitions, machine and client crashes"
        + (", disk faults" if args.disk_faults else "")
        + (", second crash inside the recovery window"
           if args.kill_during_recovery else "")
        + (f", {args.tm_shards} TM shards with a shard kill"
           if args.tm_shards > 1 else "")
        + (", SSI certification with a full serializability audit"
           if args.isolation == "ssi" else "")
    )
    if args.history_dir:
        os.makedirs(args.history_dir, exist_ok=True)
    if args.json:
        os.makedirs(os.path.dirname(args.json) or ".", exist_ok=True)
    failed = []
    reports = []
    for seed in seeds:
        history_path = (
            f"{args.history_dir}/history-{seed}.json"
            if args.history_dir else None
        )
        report = run_chaos(
            seed, settings=settings, history_path=history_path,
            progress=print if args.trace else None,
        )
        reports.append(report)
        print(report.summary())
        for violation in report.violations:
            print(f"  violation: {violation}")
        if not report.ok:
            failed.append(seed)
        # A finished storm's cluster is one large reference cycle, and
        # ``Kernel.run`` pauses the collector that would otherwise reach it
        # in time: free it here, before the next seed builds its own.
        gc.collect()
    if args.disk_faults:
        totals = {"disks": {}, "integrity": {}, "salvage_reports": []}
        for report in reports:
            for name, counters in report.storage.get("disks", {}).items():
                disk = totals["disks"].setdefault(name, {})
                for key, value in counters.items():
                    disk[key] = disk.get(key, 0) + value
            for key, value in report.storage.get("integrity", {}).items():
                totals["integrity"][key] = totals["integrity"].get(key, 0) + value
            totals["salvage_reports"].extend(
                report.storage.get("salvage_reports", [])
            )
        print(storage_table(totals, title="storage (all seeds)"))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(
                {
                    "seeds": seeds,
                    "disk_faults": bool(args.disk_faults),
                    "failed_seeds": failed,
                    "reports": [dataclasses.asdict(r) for r in reports],
                },
                fh,
                indent=2,
                default=str,
            )
        print(f"wrote report JSON to {args.json}")
    if failed:
        print(f"FAILED seeds: {failed}")
        return 1
    print("all seeds upheld the guarantee")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The repro CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Transactional failure recovery for a distributed "
                    "key-value store (Middleware 2013) -- simulated cluster CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="commit, crash a server, verify recovery")
    _add_cluster_args(demo)
    demo.set_defaults(func=cmd_demo)

    workload = sub.add_parser("workload", help="run a workload mix")
    _add_cluster_args(workload)
    workload.add_argument(
        "--mix", choices=sorted(WORKLOADS), default="paper",
        help="YCSB mix (A-F) or the paper's transaction type",
    )
    workload.add_argument("--duration", type=float, default=30.0)
    workload.add_argument("--tps", type=float, default=None,
                          help="offered load (default: closed loop)")
    workload.add_argument("--warmup", type=float, default=3.0)
    workload.add_argument("--metrics-json", metavar="PATH", default=None,
                          help="write the metrics snapshot (registries, span "
                               "summaries, commit breakdown) as JSON; '-' for "
                               "stdout")
    workload.add_argument("--check", action="store_true",
                          help="record the operation history and run the "
                               "snapshot-isolation checker on it afterwards")
    workload.add_argument("--history-json", metavar="PATH", default=None,
                          help="write the recorded operation history as "
                               "canonical JSON (implies recording)")
    workload.set_defaults(func=cmd_workload)

    failover = sub.add_parser("failover", help="server-failure timeline")
    _add_cluster_args(failover)
    failover.add_argument("--duration", type=float, default=120.0)
    failover.add_argument("--crash-at", type=float, default=40.0)
    failover.add_argument("--tps", type=float, default=250.0)
    failover.add_argument("--metrics-json", metavar="PATH", default=None,
                          help="write the metrics snapshot as JSON; '-' for "
                               "stdout")
    failover.set_defaults(func=cmd_failover)

    chaos = sub.add_parser("chaos", help="seed-swept crash-recovery storms")
    chaos.add_argument("--seeds", type=int, default=8,
                       help="sweep seeds 1..N (default 8)")
    chaos.add_argument("--seed", type=int, default=None,
                       help="run one specific seed instead of a sweep")
    chaos.add_argument("--trace", action="store_true",
                       help="print the fault trace as it happens")
    chaos.add_argument("--disk-faults", action="store_true",
                       help="also inject storage faults (write errors, lying "
                            "fsyncs, latent corruption, torn writes)")
    chaos.add_argument("--kill-during-recovery", action="store_true",
                       help="crash a second server while it hosts pending "
                            "recovery partitions (exercises cascading "
                            "failover and re-partitioning)")
    chaos.add_argument("--tm-shards", type=int, default=1, metavar="N",
                       help="run against a sharded transaction manager "
                            "(N shards) and kill one shard mid-storm")
    chaos.add_argument("--isolation", choices=("si", "ssi"), default="si",
                       help="certification isolation level; ssi runs the "
                            "SSI profile (sharded TM, shard kill) and adds "
                            "the full serializability audit to the oracle")
    chaos.add_argument("--json", metavar="PATH", default=None,
                       help="write the full sweep report as JSON")
    chaos.add_argument("--history-dir", metavar="DIR", default=None,
                       help="write each seed's recorded operation history "
                            "as DIR/history-<seed>.json")
    chaos.set_defaults(func=cmd_chaos)

    check = sub.add_parser(
        "check", help="re-run the consistency oracle on a saved history"
    )
    check.add_argument("history", metavar="HISTORY_JSON",
                       help="history file written by 'workload "
                            "--history-json' or 'chaos --history-dir'")
    check.add_argument("--mode", choices=("si", "ssi"), default=None,
                       help="serializability audit mode (default: the "
                            "history's recorded isolation metadata, or si)")
    check.set_defaults(func=cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
