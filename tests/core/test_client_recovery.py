"""Integration tests: client-failure recovery (Section 3.1, Algorithm 2),
log truncation, and recovery-manager failover (Section 3.3)."""

from repro import TABLE
from repro.kvstore.keys import row_key
from tests.core.conftest import commit_rows, read_row, recovery_cluster


def crash_after_commit(cluster, handle, rows, tag):
    """Commit a txn and crash the client before its flush can start.

    Returns the committed context.  Uses a zero-delay crash scheduled right
    after the commit reply, so the write-set exists only in the TM log.
    """
    holder = {}

    def committing():
        ctx = yield from handle.txn.begin()
        for i in rows:
            handle.txn.write(ctx, TABLE, row_key(i), f"{tag}-{i}")
        yield from handle.txn.commit(ctx)  # returns at the log-commit point
        holder["ctx"] = ctx
        handle.node.crash()  # dies with the flush still pending
        return ctx

    proc = cluster.kernel.process(committing())
    proc.defuse()
    cluster.run_until(cluster.kernel.now + 0.5)
    assert "ctx" in holder, "commit did not complete before the crash"
    return holder["ctx"]


def test_client_crash_after_commit_is_replayed():
    """Committed-but-unflushed write-sets are replayed from the TM log when
    the client dies (the paper's client-failure case)."""
    cluster = recovery_cluster(seed=41, client_hb=0.5, missed_limit=3)
    victim = cluster.add_client("victim")
    survivor = cluster.add_client("survivor")
    rows = list(range(0, 2000, 71))
    ctx = crash_after_commit(cluster, victim, rows, "orphan")

    # Detection takes missed_limit * interval; give recovery room.
    cluster.run_until(cluster.kernel.now + 5.0)
    rm = cluster.rm_status()
    assert rm["client_recoveries"] == 1
    assert rm["replayed_write_sets"] >= 1
    assert "victim" not in rm["clients"]  # unregistered after recovery

    for i in rows:
        assert read_row(cluster, survivor, i) == f"orphan-{i}"
    assert ctx.commit_ts is not None


def test_uncommitted_work_of_dead_client_is_not_replayed():
    """A write-set never committed to the TM log dies with the client --
    per the paper, those transactions count as aborted."""
    cluster = recovery_cluster(seed=42, client_hb=0.5)
    victim = cluster.add_client("victim")
    survivor = cluster.add_client("survivor")

    def doomed():
        ctx = yield from victim.txn.begin()
        victim.txn.write(ctx, TABLE, row_key(123), "never-committed")
        # Crash before commit is even attempted.
        victim.node.crash()
        return ctx

    proc = cluster.kernel.process(doomed())
    proc.defuse()
    cluster.run_until(cluster.kernel.now + 5.0)
    assert read_row(cluster, survivor, 123) == "init-123"
    rm = cluster.rm_status()
    assert rm["replayed_write_sets"] == 0


def test_clean_shutdown_needs_no_recovery():
    cluster = recovery_cluster(seed=43, client_hb=0.5)
    handle = cluster.add_client("tidy")
    rows = [5, 10, 15]
    commit_rows(cluster, handle, rows, "tidy")
    cluster.run(handle.agent.shutdown())
    cluster.run_until(cluster.kernel.now + 4.0)
    rm = cluster.rm_status()
    assert "tidy" not in rm["clients"]
    assert rm["client_recoveries"] == 0


def test_unregistered_client_does_not_block_global_tf():
    """After a clean shutdown the departed client's threshold must stop
    constraining T_F (Algorithm 2's unregister)."""
    cluster = recovery_cluster(seed=44, client_hb=0.5)
    idler = cluster.add_client("idler")
    worker = cluster.add_client("worker")
    commit_rows(cluster, worker, [1, 2, 3], "w1")
    cluster.run(idler.agent.shutdown())
    ctx = commit_rows(cluster, worker, [4, 5, 6], "w2")
    cluster.run_until(cluster.kernel.now + 3.0)
    rm = cluster.rm_status()
    assert rm["global_tf"] >= ctx.commit_ts


def test_log_truncation_bounded_by_global_tp():
    cluster = recovery_cluster(seed=45, client_hb=0.25, server_hb=0.5)
    handle = cluster.add_client()
    for batch in range(10):
        commit_rows(cluster, handle, [batch * 7, batch * 7 + 1], f"b{batch}")
    cluster.run_until(cluster.kernel.now + 4.0)  # thresholds catch up
    log = cluster.tm.log
    rm = cluster.rm_status()
    assert rm["global_tp"] > 0
    assert log.truncated_below == rm["global_tp"]
    # All ten commits persisted; almost everything should be truncated.
    assert log.length <= 2


def test_truncation_never_drops_records_recovery_needs():
    """Crash a server right after fresh commits: truncation ran throughout,
    yet every lost write-set must still be in the log and be replayed."""
    cluster = recovery_cluster(seed=46, client_hb=0.25, server_hb=0.5)
    handle = cluster.add_client()
    commit_rows(cluster, handle, list(range(0, 60, 7)), "early")
    cluster.run_until(cluster.kernel.now + 3.0)  # persist + truncate
    rows = list(range(0, 2000, 83))
    commit_rows(cluster, handle, rows, "fresh")
    cluster.crash_server(0)  # fresh commits not yet persisted anywhere
    cluster.run_until(cluster.kernel.now + 15.0)
    for i in rows:
        assert read_row(cluster, handle, i) == f"fresh-{i}"


def test_recovery_manager_restart_resumes_from_zk():
    """Section 3.3: the RM's only state is the thresholds, kept in the
    coordination service; a restarted RM catches up and still recovers."""
    cluster = recovery_cluster(seed=47, client_hb=0.5, server_hb=0.5)
    handle = cluster.add_client()
    commit_rows(cluster, handle, [1, 2, 3], "before")
    cluster.run_until(cluster.kernel.now + 2.0)
    before = cluster.rm_status()

    cluster.restart_recovery_manager()
    cluster.run_until(cluster.kernel.now + 2.0)
    after = cluster.rm_status()
    assert after["global_tf"] >= before["global_tf"]
    assert after["global_tp"] >= before["global_tp"]

    # The restarted RM still handles a server failure end-to-end.
    rows = list(range(0, 2000, 101))
    commit_rows(cluster, handle, rows, "postrestart")
    cluster.crash_server(0)
    cluster.run_until(cluster.kernel.now + 15.0)
    for i in rows:
        assert read_row(cluster, handle, i) == f"postrestart-{i}"


def test_transactions_continue_while_rm_is_down():
    cluster = recovery_cluster(seed=48, client_hb=0.5)
    handle = cluster.add_client()
    cluster.rm.crash()
    ctx = commit_rows(cluster, handle, [11, 22, 33], "rmless")
    assert ctx.state == "flushed"
    for i in (11, 22, 33):
        assert read_row(cluster, handle, i) == f"rmless-{i}"


def test_region_gate_waits_out_rm_downtime():
    """A region opening during RM downtime must stay gated until the RM is
    back and has replayed -- never serve partially recovered state."""
    cluster = recovery_cluster(seed=49, client_hb=0.5, server_hb=0.5)
    handle = cluster.add_client()
    rows = list(range(0, 2000, 89))
    commit_rows(cluster, handle, rows, "gated2")
    cluster.rm.crash()
    cluster.crash_server(0)
    cluster.run_until(cluster.kernel.now + 6.0)
    # Regions of the dead server must still be offline: the gate holds.
    status = cluster.cluster_status()
    assert not all(status["online"].values())

    cluster.restart_recovery_manager()
    # The restarted RM has no pending markers for this failure (it was down
    # when the master fired the hook), so the master-notification must be
    # replayed by the opening servers' retries against rpc_recover_region
    # with the failed server identity.
    cluster.run_until(cluster.kernel.now + 20.0)
    status = cluster.cluster_status()
    assert all(status["online"].values())
    for i in rows:
        assert read_row(cluster, handle, i) == f"gated2-{i}"
