"""Unit tests for the recovery log and group commit."""

import pytest

from repro.config import DiskSettings, TxnSettings
from repro.sim import Kernel, Network, Node
from repro.txn.log import LogRecord, RecoveryLog


def make_log(interval=0.002, max_group=64, sync_latency=0.002):
    k = Kernel(seed=5)
    net = Network(k)
    host = Node(k, net, "tm")
    settings = TxnSettings(
        group_commit_interval=interval,
        group_commit_max=max_group,
        log_disk=DiskSettings(sync_latency=sync_latency),
    )
    return k, RecoveryLog(host, settings)


def record(ts, client="c1", n=1):
    return LogRecord(
        commit_ts=ts,
        client_id=client,
        cells_by_table={"t": [(f"r{i}", "f", ts, "v") for i in range(n)]},
        nbytes=96 * n,
    )


def append_all(k, log, records):
    events = [log.append(r) for r in records]

    def waiter(k, events):
        yield k.all_of(events)

    k.run_until_complete(k.process(waiter(k, events)))


def test_append_event_fires_after_durable():
    k, log = make_log()
    done = log.append(record(1))
    assert not done.triggered
    k.run(until=1.0)
    assert done.triggered and done.value == 1
    assert log.store.length == 1


def test_group_commit_batches_concurrent_appends():
    k, log = make_log(interval=0.005)
    append_all(k, log, [record(ts) for ts in range(1, 21)])
    # All 20 arrive within one window: far fewer syncs than appends.
    assert log.stats.appended == 20
    assert log.stats.syncs <= 3
    assert log.stats.mean_group_size > 5


def test_group_commit_max_chunks_large_batches():
    k, log = make_log(interval=0.005, max_group=8)
    append_all(k, log, [record(ts) for ts in range(1, 21)])
    assert max(log.stats.group_sizes) <= 8


def test_fetch_after_ts():
    k, log = make_log()
    append_all(k, log, [record(ts) for ts in (1, 2, 3, 4, 5)])
    got = log.store.fetch(after_ts=3)
    assert [r.commit_ts for r in got] == [4, 5]
    assert log.store.fetch(after_ts=0) and len(log.store.fetch(after_ts=0)) == 5
    assert log.store.fetch(after_ts=99) == []


def test_fetch_filters_by_client():
    k, log = make_log()
    append_all(
        k, log,
        [record(1, "a"), record(2, "b"), record(3, "a"), record(4, "b")],
    )
    got = log.store.fetch(after_ts=1, client_id="a")
    assert [r.commit_ts for r in got] == [3]
    got = log.store.fetch(after_ts=0, client_id="b")
    assert [r.commit_ts for r in got] == [2, 4]


def test_truncate_drops_strictly_below():
    k, log = make_log()
    append_all(k, log, [record(ts) for ts in (1, 2, 3, 4, 5)])
    dropped = log.store.truncate(up_to_ts=3)
    assert dropped == 2  # ts 1 and 2; ts 3 itself is retained
    assert [r.commit_ts for r in log.store.fetch(after_ts=0)] == [3, 4, 5]
    assert log.truncated_below == 3
    assert log.store.truncate(up_to_ts=3) == 0  # idempotent


def test_out_of_order_append_rejected():
    k, log = make_log(interval=0.0)
    append_all(k, log, [record(5)])
    log.append(record(3))
    with pytest.raises(Exception):
        k.run(until=k.now + 1.0)


def test_wire_roundtrip():
    r = record(7, "cx", n=3)
    assert LogRecord.from_wire(r.to_wire()).commit_ts == 7
    assert LogRecord.from_wire(r.to_wire()).client_id == "cx"
    assert LogRecord.from_wire(r.to_wire()).nbytes == 96 * 3
    wire = r.to_wire()
    del wire["nbytes"]  # a sender that predates the size estimate
    assert LogRecord.from_wire(wire).nbytes == 128
