"""Tests for the cluster builder: preload, cache sizing/warming, clients,
and end-to-end determinism."""

import pytest

from repro import ClusterConfig, SimCluster, TABLE, paper_setup, small_setup
from repro.kvstore.keys import row_key
from repro.workload import WorkloadDriver


def make(seed=71, n_rows=4000, n_regions=4):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = n_rows
    config.kv.n_regions = n_regions
    return SimCluster(config).start()


def test_start_brings_everything_online():
    cluster = make()
    status = cluster.cluster_status()
    assert len(status["assignments"]) == 4
    assert all(status["online"].values())
    assert sorted(status["live_servers"]) == ["rs0", "rs1"]


def test_preload_covers_every_row():
    cluster = make()
    assert cluster.preload() == 4000
    handle = cluster.add_client()

    def read(i):
        ctx = yield from handle.txn.begin()
        return (yield from handle.txn.read(ctx, TABLE, row_key(i)))

    for i in (0, 1, 1999, 2000, 3999):
        assert cluster.run(read(i)) == f"init-{i}"


def test_warm_caches_fills_hosted_blocks():
    cluster = make()
    cluster.preload()
    cluster.warm_caches()
    for rs in cluster.servers:
        expected = sum(s.n_blocks for r in rs.regions.values() for s in r.sstables)
        assert len(rs.cache) == expected
        assert expected > 0


def test_default_cache_fits_whole_dataset_per_server():
    cluster = make()
    total_blocks = sum(
        s.n_blocks
        for rs in cluster.servers
        for r in rs.regions.values()
        for s in r.sstables
    ) or 1
    cluster.preload()
    total_blocks = sum(
        s.n_blocks
        for rs in cluster.servers
        for r in rs.regions.values()
        for s in r.sstables
    )
    for rs in cluster.servers:
        assert rs.cache.capacity >= total_blocks


def test_add_client_wires_tracker_when_recovery_enabled():
    cluster = make()
    handle = cluster.add_client("c1")
    assert handle.agent is not None
    assert handle.txn.tracker is handle.agent
    assert handle.txn.durability == "tm_log"


def test_add_client_without_recovery_uses_store_sync_when_wal_sync():
    config = ClusterConfig(seed=72)
    config.workload.n_rows = 1000
    config.kv.wal_sync_mode = "sync"
    config.recovery.enabled = False
    cluster = SimCluster(config).start()
    handle = cluster.add_client()
    assert handle.agent is None
    assert handle.txn.durability == "store_sync"


def test_same_seed_same_workload_results():
    def run(seed):
        config = ClusterConfig(seed=seed)
        config.workload.n_rows = 3000
        config.workload.n_clients = 6
        cluster = SimCluster(config).start()
        cluster.preload()
        cluster.warm_caches()
        result = WorkloadDriver(cluster).run(duration=5.0, target_tps=60.0)
        return (
            result.committed,
            result.aborted,
            round(result.latency.mean, 12),
            cluster.kernel.event_count,
        )

    assert run(5) == run(5)
    assert run(5) != run(6)


def test_paper_and_small_setups():
    paper = paper_setup()
    assert paper.workload.n_rows == 500_000
    assert paper.workload.n_clients == 50
    assert paper.kv.n_region_servers == 2
    small = small_setup()
    assert small.workload.n_rows < 50_000


def test_restart_recovery_manager_requires_recovery():
    config = ClusterConfig(seed=73)
    config.workload.n_rows = 1000
    config.recovery.enabled = False
    cluster = SimCluster(config).start()
    with pytest.raises(RuntimeError):
        cluster.restart_recovery_manager()


def test_crash_server_kills_colocated_datanode():
    cluster = make()
    cluster.crash_server(0)
    assert not cluster.servers[0].alive
    assert not cluster.datanodes[0].alive
    assert cluster.servers[1].alive


@pytest.mark.parametrize("isolation", ["si", "ssi"])
def test_single_tm_crash_restart_resumes_commits(isolation):
    """A lone TM restarts like any shard: log salvaged, certifier rebuilt
    from the retained records, oracle re-seeded past everything logged,
    and a commit retried across the restart gets exactly one verdict."""
    _tm_crash_restart_resumes_commits(isolation, log_shards=0)


def test_tm_with_log_shards_crash_restart_resumes_commits():
    """The same restart with the log on dedicated logger shards: the
    per-shard committers respawn and the certifier is rebuilt from a
    fan-out fetch."""
    _tm_crash_restart_resumes_commits("si", log_shards=2)


def _tm_crash_restart_resumes_commits(isolation, log_shards):
    from repro.errors import TxnConflict
    from repro.txn.manager import TS_RESEED_MARGIN

    config = ClusterConfig(seed=77)
    config.workload.n_rows = 1000
    config.kv.n_regions = 4
    config.txn.isolation = isolation
    config.txn.log_shards = log_shards
    config.recovery.truncate_log = False  # keep the pre-crash record retained
    cluster = SimCluster(config).start()
    cluster.preload()
    client = cluster.add_client("c")
    tm = cluster.tm

    def write(ctx, row, value):
        client.txn.write(ctx, TABLE, row_key(row), value)
        yield from client.txn.commit(ctx)
        return ctx

    stale = cluster.run(client.txn.begin())  # snapshot before any commit
    first = cluster.run(write(cluster.run(client.txn.begin()), 1, "a"))

    # Crash the TM while the second commit's log append is in flight, so
    # its client has to retry against the restarted incarnation.
    second = cluster.run(client.txn.begin())
    retried = cluster.kernel.process(write(second, 2, "b"))
    while not tm._deciding:
        cluster.kernel.step()
    cluster.crash_tm_shard(0)
    assert tm.log.last_ts == first.commit_ts  # the append died unsynced
    cluster.run_until(cluster.kernel.now + 1.0)
    cluster.restart_tm_shard(0)
    if isolation == "ssi":
        # The rw-edge window died with the crash, so a pre-crash snapshot
        # can no longer be vouched for: one verdict, a conservative abort.
        with pytest.raises(TxnConflict):
            cluster.kernel.run_until_complete(retried)
        second = cluster.run(write(cluster.run(client.txn.begin()), 2, "b"))
    else:
        cluster.kernel.run_until_complete(retried)

    assert tm.metrics()["counters"]["restarts"] == 1
    assert second.commit_ts > first.commit_ts + TS_RESEED_MARGIN
    assert tm.oracle.current() >= tm.log.last_ts == second.commit_ts
    # Nothing acknowledged is lost.
    assert [r.commit_ts for r in cluster.run(tm.log.fetch_gen(0))] == [
        first.commit_ts, second.commit_ts,
    ]
    # The rebuilt certifier still knows the pre-crash write.
    with pytest.raises(TxnConflict):
        cluster.run(write(stale, 1, "late"))
    # And ordinary commits resume.
    third = cluster.run(write(cluster.run(client.txn.begin()), 3, "c"))
    assert third.commit_ts > second.commit_ts


@pytest.mark.kills_process
def test_failed_tm_restart_fails_the_run():
    """A restart that raises must not vanish into a defused process."""
    from repro.errors import SimulationError

    cluster = make(n_rows=1000)
    cluster.crash_tm_shard(0)
    cluster.tm.log.restart = None  # any bug inside restart()
    cluster.restart_tm_shard(0)
    with pytest.raises(SimulationError):
        cluster.run_until(cluster.kernel.now + 1.0)
