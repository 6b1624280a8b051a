"""Snapshot visibility under the deferred-update model.

Under deferred update a write-set reaches the store only after commit, so
a snapshot at the newest commit timestamp (the paper's implicit behaviour)
can briefly miss a committed-but-unflushed transaction.  Under SSI the
fractured-snapshot abort closes that window.
"""

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key


def build(seed):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = 2000
    config.kv.n_regions = 4
    config.recovery.client_heartbeat_interval = 0.5
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def test_latest_mode_can_miss_unflushed_commit():
    """Documents the anomaly the paper's model admits: a snapshot taken
    after commit but before the flush lands reads the older version."""
    cluster = build(seed=111)
    writer = cluster.add_client("writer")
    reader = cluster.add_client("reader")
    observed = {}

    def scenario():
        ctx = yield from writer.txn.begin()
        writer.txn.write(ctx, TABLE, row_key(9), "new-value")
        yield from writer.txn.commit(ctx)  # flush still in flight
        # Pin the flush in flight: cut the writer off from the region
        # servers (it keeps retrying, per the paper's unbounded retries).
        cluster.net.partition(
            [writer.node.addr], [rs.addr for rs in cluster.servers]
        )
        r = yield from reader.txn.begin()
        assert r.start_ts >= ctx.commit_ts  # snapshot covers the commit...
        observed["value"] = yield from reader.txn.read(r, TABLE, row_key(9))

    cluster.run(scenario())
    # ...but the data had not arrived: the read missed the new value.
    assert observed["value"] == "init-9"
    cluster.net.heal()
