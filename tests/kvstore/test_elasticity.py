"""Elastic scale-out: dynamic server addition, region moves, balancing."""

import pytest

from repro import ClusterConfig, SimCluster, TABLE
from repro.errors import RpcTimeout
from repro.kvstore.keys import row_key
from repro.workload import CommitLedger, WorkloadDriver


def make_cluster(seed=85):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = 4000
    config.kv.n_regions = 6
    config.workload.n_clients = 8
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def region_counts(cluster):
    status = cluster.cluster_status()
    counts = {}
    for _region, server in status["assignments"].items():
        counts[server] = counts.get(server, 0) + 1
    return counts


def test_move_region_preserves_data():
    cluster = make_cluster()
    handle = cluster.add_client()
    status = cluster.cluster_status()
    region, source = next(iter(status["assignments"].items()))
    target = next(s for s in status["live_servers"] if s != source)

    # Write into the region before moving it.
    rows_in_region = [i for i in range(4000) if i % 137 == 0]
    def write():
        ctx = yield from handle.txn.begin()
        for i in rows_in_region:
            handle.txn.write(ctx, TABLE, row_key(i), f"mv-{i}")
        yield from handle.txn.commit(ctx, wait_flush=True)

    cluster.run(write())
    result = cluster.run(cluster.rpc("master", "move_region", region=region, target=target))
    assert result["moved"] is True
    status = cluster.cluster_status()
    assert status["assignments"][region] == target
    assert status["online"][region]

    def read(i):
        ctx = yield from handle.txn.begin()
        return (yield from handle.txn.read(ctx, TABLE, row_key(i)))

    for i in rows_in_region:
        assert cluster.run(read(i)) == f"mv-{i}"


def test_scale_out_and_balance():
    cluster = make_cluster(seed=86)
    new_rs = cluster.add_server()
    cluster.run_until(cluster.kernel.now + 1.0)  # master notices it
    status = cluster.cluster_status()
    assert new_rs.addr in status["live_servers"]

    moves = cluster.run(cluster.rpc("master", "balance"))
    assert moves, "balancing should move regions onto the new server"
    counts = region_counts(cluster)
    assert counts.get(new_rs.addr, 0) == 2
    assert max(counts.values()) - min(counts.values()) <= 1


def test_reads_and_writes_continue_through_balancing():
    cluster = make_cluster(seed=87)
    cluster.add_server()
    cluster.run_until(cluster.kernel.now + 1.0)
    driver = WorkloadDriver(cluster)
    driver.ensure_clients()

    balance_result = {}

    def run_balance():
        result = yield cluster.observer.call("master", "balance", timeout=60.0)
        balance_result["moves"] = result

    proc = cluster.kernel.process(run_balance())
    proc.defuse()
    result = driver.run(duration=8.0, target_tps=80.0)
    assert balance_result["moves"]
    assert result.failed == 0
    assert result.achieved_tps > 70.0


def test_new_server_participates_in_recovery():
    """Crash the newly added server: the recovery middleware covers it like
    any veteran (it registered and heartbeats on arrival)."""
    cluster = make_cluster(seed=88)
    config_rows = list(range(0, 4000, 173))
    cluster.add_server()
    cluster.run_until(cluster.kernel.now + 2.0)
    cluster.run(cluster.rpc("master", "balance"))

    handle = cluster.add_client()

    def write():
        ctx = yield from handle.txn.begin()
        for i in config_rows:
            handle.txn.write(ctx, TABLE, row_key(i), f"fresh-{i}")
        yield from handle.txn.commit(ctx, wait_flush=True)

    cluster.run(write())
    cluster.crash_server(2)  # the newcomer, with unpersisted data
    cluster.run_until(cluster.kernel.now + 15.0)
    status = cluster.cluster_status()
    assert all(status["online"].values())

    def read(i):
        ctx = yield from handle.txn.begin()
        return (yield from handle.txn.read(ctx, TABLE, row_key(i)))

    for i in config_rows:
        assert cluster.run(read(i)) == f"fresh-{i}"


def test_move_to_dead_server_rejected():
    cluster = make_cluster(seed=89)
    status = cluster.cluster_status()
    region = next(iter(status["assignments"]))
    with pytest.raises(Exception, match="not live"):
        cluster.run(
            cluster.rpc("master", "move_region", region=region, target="rs9")
        )


def test_move_onto_crashed_server_fails_and_failover_recovers_region():
    """Move a region onto a server whose machine already crashed but whose
    coordination session has not expired yet: the master still lists the
    target as live, so the move closes the region and assigns it there,
    and the open on the dead target times out.  The target's failover
    must then reopen the region on a live server with every acknowledged
    commit intact and the table's region boundaries unchanged."""
    config = ClusterConfig(seed=90)
    config.workload.n_rows = 4000
    config.kv.n_regions = 6
    config.kv.n_region_servers = 3
    cluster = SimCluster(config).start()
    cluster.preload()
    handle = cluster.add_client()
    ledger = CommitLedger()

    def triples():
        entries = yield from cluster.rpc("master", "locate_table", table=TABLE)
        return [(e["start"], e["end"], e["region"]) for e in entries]

    created = cluster.run(triples())

    def write(tag, rows, wait_flush):
        ctx = yield from handle.txn.begin()
        for i in rows:
            handle.txn.write(ctx, TABLE, row_key(i), f"{tag}-{i}")
        yield from handle.txn.commit(ctx, wait_flush=wait_flush)
        return ctx

    for n, wait_flush in enumerate((True, True, False)):
        rows = range(n, 4000, 97)
        cluster.run(ledger.executed(cluster, write(f"w{n}", rows, wait_flush), TABLE))

    target = "rs2"
    status = cluster.cluster_status()
    region = sorted(r for r, s in status["assignments"].items() if s != target)[0]
    cluster.crash_server(2)
    assert target in cluster.cluster_status()["live_servers"]

    outcome = {}

    def move():
        try:
            yield from cluster.rpc("master", "move_region", region=region, target=target)
            outcome["result"] = "moved"
        except Exception as exc:
            outcome["result"] = exc

    cluster.kernel.process(move()).defuse()
    cluster.run_until(cluster.kernel.now + 1.0)
    # Closed on its source and handed to the corpse, whose open hangs.
    assert "result" not in outcome
    assert cluster.cluster_status()["assignments"][region] == target
    cluster.run_until(cluster.kernel.now + 90.0)

    assert isinstance(outcome["result"], RpcTimeout), outcome
    status = cluster.cluster_status()
    assert target not in status["live_servers"]
    assert region in status["recovery_sources"]  # the target's failover took it
    assert status["assignments"][region] in status["live_servers"]
    assert all(status["online"].values())
    assert ledger.verify(cluster) == []
    assert cluster.run(triples()) == created
