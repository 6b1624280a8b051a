#!/usr/bin/env python3
"""Quickstart: transactions on the simulated store, and a server crash that
loses nothing.

Builds the paper's deployment (two region servers over a replicated
filesystem, an independent transaction manager with a recovery log, and the
failure-recovery middleware), commits a few transactions, kills a region
server with unpersisted data, and shows every commit surviving.

Run:  python examples/quickstart.py
"""

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key


def main() -> None:
    config = ClusterConfig(seed=42)
    config.workload.n_rows = 10_000
    # Make the store's own persistence lazy, so the crash below would lose
    # data without the recovery middleware.
    config.kv.wal_sync_interval = 300.0

    print("Booting cluster (2 region servers, TM + recovery manager)...")
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    client = cluster.add_client("app")

    def transfer(ctx_rows, tag):
        """One transaction writing `tag` into several rows."""
        def body(ctx):
            for i in ctx_rows:
                old = yield from client.txn.read(ctx, TABLE, row_key(i))
                client.txn.write(ctx, TABLE, row_key(i), f"{tag} (was {old})")

        # The transaction() helper wraps begin/commit and aborts on error.
        ctx, _ = yield from client.txn.transaction(body, retries=2)
        return ctx

    print("Committing three transactions...")
    contexts = []
    for n in range(3):
        ctx = cluster.run(transfer(range(n * 10, n * 10 + 5), f"txn{n}"))
        contexts.append(ctx)
        print(f"  txn{n}: commit_ts={ctx.commit_ts} state={ctx.state}")

    print("\nCrashing region server rs0 (memstore + WAL buffer lost)...")
    cluster.crash_server(0)
    cluster.run_until(cluster.kernel.now + 15.0)

    status = cluster.cluster_status()
    print(f"  master handled {status['failures_handled']} failure(s); "
          f"all regions online: {all(status['online'].values())}")
    rm = cluster.rm_status()
    print(f"  recovery manager replayed {rm['replayed_fragments']} "
          f"write-set fragment(s) from the TM log")

    print("\nReading everything back after recovery:")
    def read(i):
        def body(ctx):
            return (yield from client.txn.read(ctx, TABLE, row_key(i)))

        _ctx, value = yield from client.txn.transaction(body)
        return value

    ok = True
    for n in range(3):
        for i in range(n * 10, n * 10 + 5):
            value = cluster.run(read(i))
            if not (value or "").startswith(f"txn{n}"):
                ok = False
                print(f"  row {i}: LOST (got {value!r})")
    print("  every committed write survived the crash!" if ok else "  DATA LOSS")

    tm = cluster.tm.metrics()
    commits = tm["counters"]["commits"]
    print(f"\nTM: {commits} commits, log length {tm['gauges']['log_length']} "
          f"(truncated below ts {tm['gauges']['log_truncated_below']})")

    # The unified metrics snapshot: per-component registries plus the
    # commit-path latency breakdown measured by the span tracer.
    from repro.metrics import spans_table

    snapshot = cluster.metrics_snapshot()
    print()
    print(spans_table(snapshot["spans"]))
    breakdown = snapshot["commit_breakdown"]
    if breakdown["end_to_end"]:
        print(f"commit p50: {breakdown['end_to_end']['p50'] * 1000:.2f} ms "
              f"end-to-end; stage p50 sum "
              f"{breakdown['stage_p50_sum'] * 1000:.2f} ms")


if __name__ == "__main__":
    main()
