"""Tests for the recovery log over logger shards, and for the cases its
two shapes share.

A TM's :class:`~repro.txn.log.RecoveryLog` is one facade over a list of
member stores: three logger shards in the module-level cases, or -- in a
class that sets ``logger_shards = 0`` -- the TM's own store alone, its
zero-hop member.
"""

import pytest

from repro import ClusterConfig, SimCluster, TABLE
from repro.config import TxnSettings
from repro.errors import RpcTimeout
from repro.kvstore.keys import row_key
from repro.sim import Kernel, Network, Node
from repro.txn.log import LogRecord, RecoveryLog
from repro.txn.loggers import LoggerShard


@pytest.fixture
def shard_env(request):
    k = Kernel(seed=95)
    net = Network(k)
    settings = TxnSettings()
    n = getattr(request.cls, "logger_shards", 3)
    shards = [LoggerShard(k, net, f"log{i}", settings=settings) for i in range(n)]
    tm = Node(k, net, "tm")
    log = RecoveryLog(tm, settings, logger_shards=[s.addr for s in shards])
    return k, shards, tm, log


def record(ts, client="c", n=1):
    return LogRecord(ts, client, {"t": [(f"r{i}", "f", ts, "v") for i in range(n)]},
                     nbytes=96 * n)


def append_all(k, log, records):
    events = [log.append(r) for r in records]

    def waiter():
        yield k.all_of(events)

    k.run_until_complete(k.process(waiter()))


def run(k, gen):
    return k.run_until_complete(k.process(gen))


def test_records_stripe_across_shards(shard_env):
    k, shards, _tm, log = shard_env
    append_all(k, log, [record(ts) for ts in range(1, 31)])
    lengths = [s.store.length for s in shards]
    assert sum(lengths) == 30
    assert all(length == 10 for length in lengths)  # ts % 3 striping


def test_fetch_merges_in_timestamp_order(shard_env):
    k, _shards, _tm, log = shard_env
    append_all(k, log, [record(ts) for ts in range(1, 21)])
    got = run(k, log.fetch_gen(after_ts=5))
    assert [r.commit_ts for r in got] == list(range(6, 21))


def test_fetch_filters_by_client(shard_env):
    k, _shards, _tm, log = shard_env
    records = [record(ts, client=("a" if ts % 2 else "b")) for ts in range(1, 11)]
    append_all(k, log, records)
    got = run(k, log.fetch_gen(after_ts=0, client_id="a"))
    assert [r.commit_ts for r in got] == [1, 3, 5, 7, 9]


def test_truncate_broadcasts(shard_env):
    k, shards, _tm, log = shard_env
    append_all(k, log, [record(ts) for ts in range(1, 31)])
    dropped = run(k, log.truncate_gen(up_to_ts=16))
    assert dropped == 15
    got = run(k, log.fetch_gen(after_ts=0))
    assert [r.commit_ts for r in got] == list(range(16, 31))


def test_duplicate_batch_delivery_deduplicated(shard_env):
    k, shards, tm, _log = shard_env

    def deliver_twice():
        wire = [record(5).to_wire()]
        yield tm.call("log0", "shard_append", records=wire)
        yield tm.call("log0", "shard_append", records=wire)

    run(k, deliver_twice())
    assert shards[0].store.length == 1


def test_stats_aggregate(shard_env):
    k, _shards, _tm, log = shard_env
    append_all(k, log, [record(ts) for ts in range(1, 13)])
    stats = run(k, log.stats_gen())
    assert stats["length"] == 12
    assert len(stats["members"]) == 3


def test_range_ends_follow_appends_and_truncation(shard_env):
    k, _shards, _tm, log = shard_env
    assert (log.truncated_below, log.last_ts) == (0, 0)
    append_all(k, log, [record(ts) for ts in range(1, 13)])
    assert log.last_ts == 12
    run(k, log.truncate_gen(up_to_ts=20))
    assert (log.truncated_below, log.last_ts) == (20, 20)


def test_host_crash_drops_queued_appends_and_restart_resumes(shard_env):
    k, shards, tm, log = shard_env
    append_all(k, log, [record(1)])
    # ts 2 and 5 share a member (2 % 3 == 5 % 3): the idle committer
    # starts writing 2 inside its append, and 5 queues behind that write.
    orphans = [log.append(record(ts)) for ts in (2, 5)]  # waiters die below
    tm.crash()
    tm.revive()
    # An append enqueued between revive() and restart() has a live waiter.
    survivor = log.append(record(4))
    log.restart()
    k.run_until_complete(survivor)
    k.run(until=k.now + 1.0)
    assert not any(done.triggered for done in orphans)
    fetched = [r.commit_ts for r in run(k, log.fetch_gen(0))]
    # 2 was in flight when the host died: its shard_append still reaches
    # a logger shard, while the TM's own device stored nothing of it.
    assert fetched == ([1, 2, 4] if shards else [1, 4])
    assert log.last_ts == 4


def test_fetch_learns_appends_whose_ack_died_with_the_host(shard_env):
    k, _shards, tm, log = shard_env

    def deliver_unacked():
        yield tm.call("log0", "shard_append", records=[record(9).to_wire()])

    run(k, deliver_unacked())
    assert log.last_ts == 0
    run(k, log.fetch_gen(0))
    assert log.last_ts == 9


def test_fan_out_to_dead_shards_fails_only_the_caller(shard_env):
    k, shards, _tm, log = shard_env
    shards[0].crash()
    shards[1].crash()
    with pytest.raises(RpcTimeout):
        run(k, log.fetch_gen(0))
    k.run()  # the other timed-out fork is not a process death to escalate


class TestOneZeroHopMember:
    """The shared cases against the other shape: no logger shard, so the
    log's one member is the TM's own store."""

    logger_shards = 0
    test_fetch_merges_in_timestamp_order = staticmethod(
        test_fetch_merges_in_timestamp_order
    )
    test_range_ends_follow_appends_and_truncation = staticmethod(
        test_range_ends_follow_appends_and_truncation
    )
    test_host_crash_drops_queued_appends_and_restart_resumes = staticmethod(
        test_host_crash_drops_queued_appends_and_restart_resumes
    )


def test_zero_hop_recovery_reads_cost_no_time_and_no_events():
    """A lone zero-hop member answers fetch, truncate and stats inside
    the caller's step: the generators finish without yielding."""
    k = Kernel(seed=95)
    tm = Node(k, Network(k), "tm")
    log = RecoveryLog(tm)
    append_all(k, log, [record(ts) for ts in range(1, 6)])
    before = (k.now, k.event_count)

    def finish(gen):
        with pytest.raises(StopIteration) as stop:
            next(gen)
        return stop.value.value

    assert [r.commit_ts for r in finish(log.fetch_gen(2))] == [3, 4, 5]
    assert finish(log.truncate_gen(3)) == 2
    assert finish(log.stats_gen())["length"] == 3
    assert (k.now, k.event_count) == before


class TestClusterWithShardedLog:
    @pytest.fixture(scope="class")
    def cluster(self):
        config = ClusterConfig(seed=96)
        config.workload.n_rows = 2000
        config.txn.log_shards = 2
        config.kv.wal_sync_interval = 300.0
        cluster = SimCluster(config).start()
        cluster.preload()
        cluster.warm_caches()
        return cluster

    def test_commits_flow_through_shards(self, cluster):
        handle = cluster.add_client()

        def txn():
            ctx = yield from handle.txn.begin()
            handle.txn.write(ctx, TABLE, row_key(1), "sharded")
            yield from handle.txn.commit(ctx, wait_flush=True)
            return ctx

        ctx = cluster.run(txn())
        assert ctx.commit_ts is not None
        status = cluster.status("tm")
        assert status["log_appended"] >= 1

        def read():
            c2 = yield from handle.txn.begin()
            return (yield from handle.txn.read(c2, TABLE, row_key(1)))

        assert cluster.run(read()) == "sharded"

    def test_recovery_fetches_across_shards(self, cluster):
        handle = cluster.clients[0]
        rows = list(range(0, 2000, 59))

        def write():
            ctx = yield from handle.txn.begin()
            for i in rows:
                handle.txn.write(ctx, TABLE, row_key(i), f"sh-{i}")
            yield from handle.txn.commit(ctx, wait_flush=True)

        cluster.run(write())
        cluster.crash_server(0)
        cluster.run_until(cluster.kernel.now + 15.0)
        status = cluster.cluster_status()
        assert all(status["online"].values())

        def read(i):
            c2 = yield from handle.txn.begin()
            return (yield from handle.txn.read(c2, TABLE, row_key(i)))

        for i in rows:
            assert cluster.run(read(i)) == f"sh-{i}"
