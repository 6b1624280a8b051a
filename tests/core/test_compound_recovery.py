"""Compound-failure tests: the recovery pipeline failing mid-recovery.

Fan-out recovery distributes a dead server's regions across every live
server, each fetching scattered WAL fragments from backup datanodes.
These tests point the oracle at the pipeline's own failure modes: a
recipient dying while it hosts recovery partitions, the sole backup copy
of a fragment vanishing mid-fetch, and a second failover racing the
in-flight recovery plan.
"""

import pytest

from repro.check import SIChecker
from repro.kvstore.wal import wal_dir
from tests.core.conftest import (
    commit_rows,
    read_row,
    recovery_cluster,
    rows_on_server,
)


def _step_until(cluster, predicate, deadline, step=0.1):
    """Advance the simulation until ``predicate()`` or ``deadline``."""
    while cluster.kernel.now < deadline:
        if predicate():
            return True
        cluster.run_until(cluster.kernel.now + step)
    return predicate()


def _crash_when(cluster, predicate, action, fired):
    """In-sim watcher: run ``action`` at the first tick ``predicate`` holds.

    On a clean fabric the hook->replay window is milliseconds of sim
    time; sampling from outside the simulation would step right over it.
    """

    def watcher():
        while not predicate():
            yield cluster.kernel.timeout(0.005)
        action()
        fired.append(cluster.kernel.now)

    cluster.kernel.process(watcher()).defuse()


def _settled(cluster, min_failures=1):
    status = cluster.cluster_status()
    return (
        status["failures_handled"] >= min_failures
        and all(status["online"].values())
        and not cluster.rm.pending_regions
    )


def test_recipient_crash_while_hosting_recovery_partitions():
    """Crash rs0; once rs1 is designated a recovery recipient (it holds a
    pinned region of the in-flight plan), crash rs1 too.  The orphaned
    partitions must be re-covered by the second failover, and every
    committed write must still be readable."""
    cluster = recovery_cluster(seed=41, n_servers=3, n_regions=6)
    handle = cluster.add_client()
    recorder = cluster.attach_history_recorder()
    monitor = cluster.attach_invariant_monitor(interval=0.25)
    rows = list(range(0, 2000, 37))
    commit_rows(cluster, handle, rows, "compound")

    def rs1_hosts_recovery_partition():
        return any(
            cluster.master.assignments.get(region) == "rs1"
            for region in cluster.rm.pending_regions
        )

    fired = []
    _crash_when(
        cluster,
        rs1_hosts_recovery_partition,
        lambda: cluster.crash_server(1),
        fired,
    )
    cluster.crash_server(0)
    cluster.run_until(cluster.kernel.now + 20.0)
    assert fired, "rs1 never received a recovery partition"

    assert _step_until(
        cluster, lambda: _settled(cluster, min_failures=2), cluster.kernel.now + 60.0
    ), f"recovery never settled: pending={dict(cluster.rm.pending_regions)}"
    status = cluster.cluster_status()
    assert set(status["assignments"].values()) == {"rs2"}
    for i in rows:
        assert read_row(cluster, handle, i) == f"compound-{i}"

    report = SIChecker(recorder.events).check()
    assert report.ok, "\n".join(str(a) for a in report.anomalies)
    assert monitor.ok, monitor.violations


def test_sole_copy_backup_dies_mid_fetch_then_revives():
    """With replication=1 each scattered WAL segment has exactly one
    backup copy.  Kill the holder of the victim's freshest segment right
    after the crash -- the fragment fetch stalls on retries -- then revive
    it inside the retry window.  Recovery must complete, not abort."""
    cluster = recovery_cluster(seed=42, n_servers=3, n_regions=6, replication=1)
    handle = cluster.add_client()
    monitor = cluster.attach_invariant_monitor(interval=0.25)
    rows = list(range(0, 2000, 43))
    commit_rows(cluster, handle, rows, "solecopy")

    # Crash only the region-server process; its local datanode survives,
    # so the fragments we block are blocked purely by the backup's death.
    cluster.servers[0].crash()

    prefix = wal_dir("rs0")
    segments = sorted(
        path for path in cluster.namenode._files if path.startswith(prefix)
    )
    assert segments, "victim left no scattered WAL segments"
    meta = cluster.namenode._files[segments[-1]]
    assert len(meta.replicas) == 1, "replication=1 should leave a sole copy"
    backup = meta.replicas[0]
    victim_dn = next(dn for dn in cluster.datanodes if dn.addr == backup)
    victim_dn.crash()
    revive_at = cluster.kernel.now + 8.0
    cluster.after(8.0, victim_dn.revive)

    assert _step_until(
        cluster, lambda: _settled(cluster), cluster.kernel.now + 45.0
    ), f"recovery never settled: pending={dict(cluster.rm.pending_regions)}"
    # The fragment fetch genuinely stalled: with the sole copy offline,
    # recovery cannot have completed before the backup revived.
    assert cluster.kernel.now >= revive_at
    for i in rows:
        assert read_row(cluster, handle, i) == f"solecopy-{i}"
    assert monitor.ok, monitor.violations


def test_second_failover_races_in_flight_recovery_plan():
    """Crash rs1 the moment rs0's recovery plan is in flight (regions
    pinned, opens dispatched).  The plan's opens against rs1 time out and
    leave their regions on the corpse; the second failover must pick them
    up, and the pins must transfer without double-counting."""
    cluster = recovery_cluster(seed=43, n_servers=3, n_regions=6)
    handle = cluster.add_client()
    recorder = cluster.attach_history_recorder()
    monitor = cluster.attach_invariant_monitor(interval=0.25)
    rows = list(range(0, 2000, 31))
    commit_rows(cluster, handle, rows, "race")

    # Kill a designated recipient the instant the plan pins a region,
    # then bring its machine back after a dwell (chaos-janitor style):
    # with replication=2 and two of three machines down, fragments whose
    # replicas both died are unavailable until one holder returns.
    def revive_rs1():
        rs = cluster.servers[1]
        cluster.datanodes[1].revive()

        def bring_up():
            # Wait until the master observed the death, or the
            # re-registration masks it and failover never runs.
            while rs.addr in cluster.master._live_servers:
                yield cluster.kernel.timeout(0.25)
            yield from rs.restart()

        cluster.kernel.process(bring_up()).defuse()

    fired = []
    _crash_when(
        cluster,
        lambda: bool(cluster.rm.pending_regions),
        lambda: (cluster.crash_server(1), cluster.after(6.0, revive_rs1))[0],
        fired,
    )
    cluster.crash_server(0)
    cluster.run_until(cluster.kernel.now + 20.0)
    assert fired, "rs0's failover never pinned a region"

    assert _step_until(
        cluster, lambda: _settled(cluster, min_failures=2), cluster.kernel.now + 60.0
    ), f"recovery never settled: pending={dict(cluster.rm.pending_regions)}"
    status = cluster.cluster_status()
    assert set(status["assignments"].values()) <= {"rs1", "rs2"}
    for i in rows:
        assert read_row(cluster, handle, i) == f"race-{i}"

    report = SIChecker(recorder.events).check()
    assert report.ok, "\n".join(str(a) for a in report.anomalies)
    assert monitor.ok, monitor.violations


@pytest.mark.xfail(
    strict=True,
    reason="known gap (docs/RECOVERY.md): the master and the recovery "
           "manager know a region server by address only, so a recipient "
           "that dies and re-registers while the failover waits on its "
           "open is taken for the incarnation that held the replay",
)
def test_recipient_reincarnates_while_failover_waits_on_its_open():
    """Crash rs0; the moment the TM-log replay for its regions sits in
    rs1's memstore (pins released) cut rs1 off from the master, so the
    open replies are lost, and crash the rs1 process.  Its session
    expires, it restarts empty and re-registers under the same address
    while the master is still inside the first failover, retrying the
    opens.  Every acknowledged commit must still read back.

    Today the rows read ``init-<i>``: the master's liveness loop is
    blocked inside the first failover, ``_open_with_retry``'s liveness
    check sees the re-registered ephemeral and retries the open on the
    new incarnation, and the recovery manager answers its gate "nothing
    pending" -- one failover handled, every region online on rs1, and
    T_P(rs1) covering the lost timestamp (docs/RECOVERY.md, "Known
    gaps").
    """
    cluster = recovery_cluster(seed=1, n_servers=2, n_regions=4, server_hb=5.0)
    handle = cluster.add_client()
    rows = rows_on_server(cluster, 0, range(0, 2000, 61))
    commit_rows(cluster, handle, rows, "reinc", wait_flush=True)
    cluster.crash_server(0)

    # The replay window is about 20 ms of simulated time: step finely.
    pinned = False
    deadline = cluster.kernel.now + 30.0
    while not pinned or cluster.rm.pending_regions:
        pinned = pinned or bool(cluster.rm.pending_regions)
        assert cluster.kernel.now < deadline, "rs0's regions were never replayed"
        cluster.run_until(cluster.kernel.now + 50e-6)

    cluster.net.partition(["master"], ["rs1"])
    cluster.servers[1].crash()
    cluster.run_until(cluster.kernel.now + 2.0)  # session expiry
    cluster.net.heal()
    cluster.run(cluster.servers[1].restart())
    cluster.run_until(cluster.kernel.now + 60.0)

    for i in rows:
        assert read_row(cluster, handle, i) == f"reinc-{i}"
