"""Stuck-region alerting (Section 3.2's administrator escape hatch).

Each client monitors the size of its flush queue; when it exceeds the
configured threshold -- e.g. a region that stays unavailable so flushes
pile up -- an alert rides the next heartbeat and the recovery manager
records it for operator attention.
"""

from repro import TABLE
from repro.kvstore.keys import row_key
from tests.core.conftest import recovery_cluster


def test_stuck_flushes_raise_alerts():
    cluster = recovery_cluster(seed=55, client_hb=0.5)
    cluster.config.recovery.queue_alert_threshold = 2  # tiny, for the test
    handle = cluster.add_client("alerter")

    # Make every region permanently unavailable to flushes by crashing both
    # machines' region servers (keeping zk/tm alive).
    cluster.servers[0].crash()
    cluster.servers[1].crash()

    def commit_without_flush_progress():
        for n in range(6):
            ctx = yield from handle.txn.begin()
            handle.txn.write(ctx, TABLE, row_key(n), f"stuck-{n}")
            yield from handle.txn.commit(ctx)  # commits fine (TM log is up)
            yield handle.node.sleep(0.05)

    proc = cluster.kernel.process(commit_without_flush_progress())
    proc.defuse()
    cluster.run_until(cluster.kernel.now + 4.0)

    assert handle.agent.tracker.in_flight >= 6  # nothing could flush
    assert handle.agent.alerts_raised > 0
    assert len(cluster.rm.book.alerts) > 0
    assert cluster.rm.book.alerts[0]["component"] == "alerter"


def test_no_alerts_in_healthy_operation():
    cluster = recovery_cluster(seed=56, client_hb=0.5)
    cluster.config.recovery.queue_alert_threshold = 5
    handle = cluster.add_client("quiet")

    def commits():
        for n in range(10):
            ctx = yield from handle.txn.begin()
            handle.txn.write(ctx, TABLE, row_key(n), f"ok-{n}")
            yield from handle.txn.commit(ctx, wait_flush=True)

    cluster.run(commits())
    cluster.run_until(cluster.kernel.now + 2.0)
    assert handle.agent.alerts_raised == 0
    assert cluster.rm.book.alerts == []
