"""Network partitions are crash failures (Section 3.1).

A partitioned client cannot reach the recovery manager: the manager
declares it dead and replays its committed write-sets, while the client
terminates itself once its heartbeats fail persistently -- so its stale
flushes can never race the recovery.  A partitioned region server loses
its coordination-service session, and the master runs ordinary server
failover.
"""

from repro import TABLE
from repro.kvstore.keys import row_key
from tests.core.conftest import commit_rows, read_row, recovery_cluster


def test_partitioned_client_terminates_itself_and_is_recovered():
    cluster = recovery_cluster(seed=51, client_hb=0.5, missed_limit=3)
    victim = cluster.add_client("victim")
    observer = cluster.add_client("watcher")
    rows = list(range(0, 2000, 61))

    holder = {}

    def commit_then_partition():
        ctx = yield from victim.txn.begin()
        for i in rows:
            victim.txn.write(ctx, TABLE, row_key(i), f"cutoff-{i}")
        yield from victim.txn.commit(ctx)  # durable in the TM log
        holder["ctx"] = ctx
        # Cut the client off from everything (zk, servers, tm) mid-flush.
        everyone = [n for n in cluster.net.nodes if n != victim.node.addr]
        cluster.net.partition([victim.node.addr], everyone)

    proc = cluster.kernel.process(commit_then_partition())
    proc.defuse()
    cluster.run_until(cluster.kernel.now + 10.0)

    # The client terminated itself after persistent heartbeat failure...
    assert victim.agent.self_terminated
    assert not victim.node.alive
    # ...and the recovery manager replayed its committed write-set.
    rm = cluster.rm_status()
    assert rm["client_recoveries"] == 1
    assert "victim" not in rm["clients"]
    for i in rows:
        assert read_row(cluster, observer, i) == f"cutoff-{i}"


def test_partitioned_server_handled_as_crash():
    cluster = recovery_cluster(seed=52)
    handle = cluster.add_client()
    rows = list(range(0, 2000, 73))
    commit_rows(cluster, handle, rows, "island")

    island = [cluster.servers[0].addr, cluster.datanodes[0].addr]
    everyone = [n for n in cluster.net.nodes if n not in island]
    cluster.after(0.1, lambda: cluster.net.partition(island, everyone))

    cluster.run_until(cluster.kernel.now + 15.0)
    status = cluster.cluster_status()
    # The isolated server's session expired; its regions failed over and
    # were transactionally recovered on the survivor.
    assert status["failures_handled"] == 1
    assert set(status["assignments"].values()) == {"rs1"}
    assert all(status["online"].values())
    for i in rows:
        assert read_row(cluster, handle, i) == f"island-{i}"


def test_healed_partition_client_stays_dead():
    """Once declared dead and recovered, a returning client's messages are
    irrelevant -- it terminated itself during the partition, so nothing
    stale can arrive after healing."""
    cluster = recovery_cluster(seed=53, client_hb=0.5, missed_limit=3)
    victim = cluster.add_client("victim")
    observer = cluster.add_client("watcher")
    rows = [10, 20, 30]

    def commit_then_cut():
        ctx = yield from victim.txn.begin()
        for i in rows:
            victim.txn.write(ctx, TABLE, row_key(i), f"flap-{i}")
        yield from victim.txn.commit(ctx)
        everyone = [n for n in cluster.net.nodes if n != victim.node.addr]
        cluster.net.partition([victim.node.addr], everyone)

    proc = cluster.kernel.process(commit_then_cut())
    proc.defuse()
    cluster.run_until(cluster.kernel.now + 8.0)
    cluster.net.heal()
    cluster.run_until(cluster.kernel.now + 3.0)
    assert not victim.node.alive  # healing does not resurrect it
    for i in rows:
        assert read_row(cluster, observer, i) == f"flap-{i}"
