"""Shared helpers for recovery-middleware integration tests."""

import pytest

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key


def recovery_cluster(
    seed=21,
    n_servers=2,
    wal_sync_interval=300.0,
    server_hb=1.0,
    client_hb=0.5,
    missed_limit=3,
    n_rows=2_000,
    n_regions=4,
    truncate=True,
    replication=2,
    tm_shards=1,
):
    """A cluster tuned so the store alone would lose data on failure.

    The WAL group-sync interval is huge, so only the recovery agents'
    heartbeat syncs persist anything -- crash inside a heartbeat interval
    and the memstore content is gone unless the middleware replays it.
    """
    config = ClusterConfig(seed=seed)
    config.kv.n_region_servers = n_servers
    config.kv.n_regions = n_regions
    config.kv.wal_sync_interval = wal_sync_interval
    config.workload.n_rows = n_rows
    config.recovery.server_heartbeat_interval = server_hb
    config.recovery.client_heartbeat_interval = client_hb
    config.recovery.missed_heartbeat_limit = missed_limit
    config.recovery.truncate_log = truncate
    config.dfs.replication = replication
    config.txn.tm_shards = tm_shards
    config.zk.session_timeout = 1.0
    config.zk.tick_interval = 0.2
    cluster = SimCluster(config)
    cluster.start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def commit_rows(cluster, handle, rows, tag, wait_flush=True):
    """Run one update transaction writing tag-values to ``rows``."""

    def txn():
        ctx = yield from handle.txn.begin()
        for i in rows:
            handle.txn.write(ctx, TABLE, row_key(i), f"{tag}-{i}")
        yield from handle.txn.commit(ctx, wait_flush=wait_flush)
        return ctx

    return cluster.run(txn())


def read_row(cluster, handle, i, max_retries=None):
    """Snapshot-read one row through a fresh transaction."""

    def txn():
        ctx = yield from handle.txn.begin()
        value = yield from handle.txn.read(ctx, TABLE, row_key(i))
        return value

    return cluster.run(txn())


def rows_on_server(cluster, server_index, candidates):
    """Subset of ``candidates`` whose region lives on servers[server_index]."""
    handle_addr = cluster.servers[server_index].addr
    status = cluster.cluster_status()
    out = []
    for i in candidates:
        key = row_key(i)
        for region in cluster.servers[server_index].regions.values():
            if region.contains(key):
                out.append(i)
                break
    assert status["assignments"], "no regions assigned"
    return out
