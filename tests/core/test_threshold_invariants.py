"""Threshold invariants on live clusters across restarts and failures.

The paper's correctness argument rests on a handful of ordering
invariants between the flush threshold T_F and the persistence
thresholds T_P(s) (Section 3).  These tests keep an
:class:`~repro.check.monitor.InvariantMonitor` sampling while the
cluster goes through the transitions most likely to break them: server
incarnation changes, recovery-manager restarts, and a client and server
failing at the same instant.
"""

import pytest

from repro import TABLE
from repro.check import InvariantMonitor, evaluate_invariants
from repro.errors import TxnConflict
from repro.kvstore.keys import row_key
from repro.sim.events import Interrupt

from tests.core.conftest import commit_rows, read_row, recovery_cluster


def settle(cluster, seconds):
    cluster.run_until(cluster.kernel.now + seconds)


def test_invariants_hold_across_server_incarnation_change():
    cluster = recovery_cluster(seed=61)
    monitor = cluster.attach_invariant_monitor(interval=0.25)
    handle = cluster.add_client("c0")

    commit_rows(cluster, handle, range(0, 20), "pre")
    settle(cluster, 1.0)

    old_incarnation = cluster.servers[0].incarnation
    cluster.crash_server(0)
    settle(cluster, 6.0)  # session expiry, failover, replay
    cluster.restart_server(0)
    settle(cluster, 3.0)

    commit_rows(cluster, handle, range(20, 40), "post")
    settle(cluster, 2.0)

    assert cluster.servers[0].incarnation > old_incarnation
    assert monitor.samples > 0
    assert monitor.ok, monitor.violations
    # The monitor really observed both lives of the restarted server --
    # T_P monotonicity is tracked per (server, incarnation).
    addr = cluster.servers[0].addr
    incs = {k[2] for k in monitor.memory if k[:2] == ("server", addr)}
    assert len(incs) >= 2, incs

    # The data survived the incarnation change, too.
    assert read_row(cluster, handle, 0) == "pre-0"
    assert read_row(cluster, handle, 20) == "post-20"


def test_restarted_server_tp_bounded_by_last_read_tf():
    cluster = recovery_cluster(seed=62)
    monitor = cluster.attach_invariant_monitor(interval=0.25)
    handle = cluster.add_client("c0")

    commit_rows(cluster, handle, range(0, 30), "a")
    cluster.crash_server(1)
    settle(cluster, 6.0)
    cluster.restart_server(1)
    commit_rows(cluster, handle, range(30, 60), "b")
    settle(cluster, 3.0)

    # Direct, single-sample statement of the paper's bound: every live
    # server's persistence threshold stays at or below the global flush
    # threshold it last read from the recovery manager.
    state = monitor.sample()
    assert state["servers"], "no live server state sampled"
    for addr, entry in state["servers"].items():
        assert entry["tp"] <= entry["last_tf_seen"], (addr, entry)
    assert evaluate_invariants(state) == []
    assert monitor.ok, monitor.violations


def test_invariants_hold_under_simultaneous_client_and_server_failure():
    cluster = recovery_cluster(seed=63)
    monitor = cluster.attach_invariant_monitor(interval=0.25)
    doomed = cluster.add_client("doomed")
    survivor = cluster.add_client("survivor")

    commit_rows(cluster, doomed, range(0, 10), "d")
    commit_rows(cluster, survivor, range(10, 20), "s")
    # Leave un-flushed work in flight from the doomed client, then take
    # out its machine and a region server in the same instant.
    commit_rows(cluster, doomed, range(0, 10), "d2", wait_flush=False)
    cluster.crash_client(0)
    cluster.crash_server(0)
    settle(cluster, 10.0)  # client recovery + server failover overlap

    commit_rows(cluster, survivor, range(10, 20), "s2")
    settle(cluster, 3.0)

    assert monitor.samples > 0
    assert monitor.ok, monitor.violations
    # The recovery manager declared the client dead and moved on: the
    # survivor's commits kept the global thresholds advancing.
    state = monitor.sample()
    assert state["rm"] is not None
    assert "doomed" not in state["rm"]["live_clients"]
    assert state["rm"]["global_tp"] <= state["rm"]["global_tf"]
    assert read_row(cluster, survivor, 10) == "s2-10"


def test_invariants_hold_across_recovery_manager_restart():
    cluster = recovery_cluster(seed=64)
    monitor = cluster.attach_invariant_monitor(interval=0.25)
    handle = cluster.add_client("c0")

    commit_rows(cluster, handle, range(0, 15), "x")
    settle(cluster, 1.0)
    cluster.restart_recovery_manager()
    settle(cluster, 3.0)
    commit_rows(cluster, handle, range(15, 30), "y")
    settle(cluster, 2.0)

    # The new manager recovered its published state: the global flush
    # threshold is judged per-epoch, so a correct restart produces no
    # global_monotone noise -- and no other violation either.
    assert monitor.ok, monitor.violations
    assert read_row(cluster, handle, 15) == "y-15"


def test_every_tm_shard_truncates_at_the_one_global_tp():
    """There is one pair of thresholds however many TM shards there are:
    each shard's log is cut at the global T_P, and a restarted recovery
    manager carries on from the published ``tf`` / ``tp`` alone."""
    cluster = recovery_cluster(seed=65, client_hb=0.25, server_hb=0.5, tm_shards=2)
    monitor = cluster.attach_invariant_monitor(interval=0.25)
    handle = cluster.add_client("c0")

    def truncation_floors():
        floors = [tm.log.truncated_below for tm in cluster.tms]
        assert all(0 < floor <= cluster.rm.global_tp for floor in floors), (
            floors, cluster.rm.global_tp)
        return floors

    for batch in range(10):
        commit_rows(cluster, handle, range(batch * 5, batch * 5 + 5), f"a{batch}")
    settle(cluster, 4.0)
    before = truncation_floors()

    cluster.restart_recovery_manager()
    settle(cluster, 3.0)
    assert cluster.rm.global_tp >= max(before)
    ctx = commit_rows(cluster, handle, range(50, 60), "b")
    settle(cluster, 4.0)
    after = truncation_floors()
    assert min(after) >= ctx.commit_ts > max(before)
    assert monitor.ok, monitor.violations


@pytest.mark.parametrize("tm_shards", (1, 2))
def test_sessions_sharing_a_client_never_push_tf_past_a_pending_commit(tm_shards):
    """Eight sessions commit through one client.  Under two TM shards a
    cross-shard commit is stamped at tm0 but answered by its coordinator,
    so a later stamp's reply can overtake it; T_F(c) must wait for the
    attempt still in flight instead of retiring the later commit."""
    cluster = recovery_cluster(seed=67, tm_shards=tm_shards)
    monitor = cluster.attach_invariant_monitor(interval=0.05)
    handle = cluster.add_client("c0")

    def session(sid):
        rng = cluster.kernel.rng.substream(f"session.{sid}")
        try:
            while True:
                try:
                    ctx = yield from handle.txn.begin()
                    for i in rng.sample(range(2000), 3):
                        handle.txn.write(ctx, TABLE, row_key(i), f"s{sid}")
                    yield from handle.txn.commit(ctx)
                except TxnConflict:
                    pass
        except Interrupt:
            return

    for sid in range(8):
        handle.node.spawn(session(sid), name=f"session{sid}").defuse()
    settle(cluster, 3.0)

    tracker = handle.agent.tracker
    assert tracker.commits_tracked > 100
    assert tracker.tf > 0
    assert tracker.order_violations == 0
    assert monitor.ok, monitor.violations[:5]
