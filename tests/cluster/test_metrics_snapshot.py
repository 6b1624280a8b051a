"""Integration tests for the unified metrics snapshot and status RPCs."""

import json

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key
from repro.workload import WorkloadDriver


def make(seed=81, n_rows=2000, n_regions=4):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = n_rows
    config.workload.n_clients = 8
    config.kv.n_regions = n_regions
    return SimCluster(config).start()


def run_some_txns(cluster, n=10):
    handle = cluster.add_client("app")

    def one(i):
        def body(ctx):
            for j in range(3):
                handle.txn.write(ctx, TABLE, row_key(i * 3 + j), f"v{i}")
            yield from ()

        return handle.txn.transaction(body)

    for i in range(n):
        cluster.run(one(i))
    cluster.run_until(cluster.kernel.now + 2.0)
    return handle


def test_metrics_snapshot_folds_every_component():
    cluster = make()
    run_some_txns(cluster)
    snap = cluster.metrics_snapshot()
    keys = set(snap["components"])
    assert "network:net" in keys
    assert "tm:tm" in keys
    assert "rm:rm" in keys
    assert "master:master" in keys
    assert "regionserver:rs0" in keys and "regionserver:rs1" in keys
    assert "txn_client:app" in keys
    assert any(k.startswith("kv_client:") for k in keys)
    tm = snap["components"]["tm:tm"]
    assert tm["counters"]["commits"] == 10
    assert snap["components"]["txn_client:app"]["counters"]["committed"] == 10


def test_commit_breakdown_stages_reconcile_within_5_percent():
    cluster = make()
    run_some_txns(cluster, n=20)
    breakdown = cluster.metrics_snapshot()["commit_breakdown"]
    e2e = breakdown["end_to_end"]
    assert e2e["count"] == 20
    for stage in ("commit.certify", "commit.log_append", "commit.reply"):
        assert breakdown["stages"][stage]["count"] == 20
    # Per-transaction stage durations sum exactly to the commit RPC; the
    # p50 sum may drift slightly from the e2e p50 (percentile skew only).
    assert abs(breakdown["p50_ratio"] - 1.0) <= 0.05
    # The pipeline below the commit point is present too.
    assert breakdown["pipeline"]["flush.writeset"]["count"] > 0
    assert breakdown["pipeline"]["log.group_sync"]["count"] > 0


def test_per_txn_stage_sum_matches_commit_latency_exactly():
    from repro.metrics import tracer_for

    cluster = make()
    handle = run_some_txns(cluster, n=5)
    tracer = tracer_for(cluster.kernel)
    rpcs = tracer.spans(stage="commit.rpc")
    assert len(rpcs) == 5
    for span in rpcs:
        parts = tracer.sum_durations(
            span.txn, ("commit.certify", "commit.log_append", "commit.reply")
        )
        assert abs(parts - span.duration) < 1e-9


def test_same_seed_snapshots_are_byte_identical():
    def snapshot_bytes():
        cluster = make(seed=91)
        driver = WorkloadDriver(cluster)
        driver.run(duration=3.0, target_tps=50.0, warmup=0.5)
        return json.dumps(cluster.metrics_snapshot(), sort_keys=True)

    assert snapshot_bytes() == snapshot_bytes()


def test_periodic_scraper_accumulates_history():
    cluster = make()
    assert cluster.metrics_history == []
    run_some_txns(cluster, n=3)
    cluster.run_until(cluster.kernel.now + 5.0)
    assert len(cluster.metrics_history) >= 5
    assert all("components" in s for s in cluster.metrics_history)
    # history is bounded
    cluster.max_metrics_history = 4
    cluster.run_until(cluster.kernel.now + 10.0)
    assert len(cluster.metrics_history) == 4


def test_status_rpcs_share_the_envelope_shape():
    cluster = make()
    run_some_txns(cluster, n=2)
    for addr, component in (
        ("tm", "tm"),
        ("rm", "rm"),
        ("master", "master"),
        ("rs0", "regionserver"),
    ):
        env = cluster.status(addr)
        assert env["component"] == component
        assert env["addr"] == addr
        assert "counters" in env["metrics"]
    assert cluster.status("tm")["metrics"]["counters"]["commits"] == 2


def test_flat_stats_surfaces_still_work():
    cluster = make()
    run_some_txns(cluster, n=2)
    tm = cluster.status("tm")
    assert tm["metrics"]["counters"]["commits"] == 2
    assert "log_length" in tm
    net = cluster.net_stats()
    assert net["messages_sent"] > 0
    rm = cluster.rm_status()
    assert "global_tf" in rm
    status = cluster.cluster_status()
    assert "assignments" in status
    storage = cluster.storage_stats()
    assert "disks" in storage


def test_crashed_flush_shows_up_as_truncated_spans():
    from repro.metrics import tracer_for

    cluster = make()
    tracer = tracer_for(cluster.kernel)
    handle = cluster.add_client("doomed")

    def one():
        def body(ctx):
            for j in range(4):
                handle.txn.write(ctx, TABLE, row_key(j), "x")
            yield from ()

        return handle.txn.transaction(body)

    cluster.run(one())
    # Let the first txn's async flush finish before the second commit.
    while not tracer.spans(stage="flush.writeset"):
        cluster.run_until(cluster.kernel.now + 0.001)
    # Run a fresh commit and kill the machine once its flush has started,
    # before the flush has a chance to finish.
    def commit_only():
        ctx = yield from handle.txn.begin()
        for j in range(4):
            handle.txn.write(ctx, TABLE, row_key(100 + j), "y")
        yield from handle.txn.commit(ctx)
        return ctx

    cluster.run(commit_only())
    while not any(s.stage == "flush.writeset" for s in tracer.open_spans()):
        cluster.kernel.step()
    cluster.crash_client(0)
    cluster.run_until(cluster.kernel.now + 10.0)
    spans = cluster.metrics_snapshot()["spans"]
    flush = spans.get("flush.writeset", {})
    # The first txn's flush finished; the second was severed by the crash
    # (it stays open forever -- never recorded as a latency sample).
    assert flush["count"] >= 1
    open_stages = {s.stage for s in tracer.open_spans()}
    assert "flush.writeset" in open_stages
