"""Unit tests for the recovery log and group commit."""

import pytest

from repro.config import DiskSettings, TxnSettings
from repro.sim import Kernel, Network, Node
from repro.txn.log import LogRecord, RecoveryLog


def make_log(max_group=64, sync_latency=0.002):
    k = Kernel(seed=5)
    net = Network(k)
    host = Node(k, net, "tm")
    settings = TxnSettings(
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


def durable_at(k, events):
    """Simulated instant each event fires at."""
    times = {}

    def watch(event):
        yield event
        times[event] = k.now

    for event in events:
        k.process(watch(event))
    return times


def test_append_event_fires_after_durable():
    from repro.metrics import tracer_for

    k, log = make_log()
    k.run(until=0.010)  # an idle log: the committer is parked on its queue
    t0 = k.now
    done = log.append(record(1))
    times = durable_at(k, [done])
    assert not done.triggered
    k.run(until=1.0)
    assert done.triggered and done.value == 1
    assert log.store.length == 1
    # The sync starts at the append and the record is durable when it
    # ends: an idle log holds no window open first.
    (sync,) = tracer_for(k).spans(stage="log.group_sync")
    assert sync.start == t0 and times[done] == sync.end_time


def test_group_commit_batches_concurrent_appends():
    k, log = make_log()
    append_all(k, log, [record(ts) for ts in range(1, 21)])
    # All 20 queue before the committer runs: one sync covers them.
    assert log.stats.appended == 20
    assert log.stats.group_sizes == [20]
    # Appends made while a sync is on the device all ride the next one.
    first = log.append(record(21))
    k.run(until=k.now + 0.001)  # mid-sync (2 ms device)
    assert log.stats.syncs == 1 and not first.triggered
    riders = [log.append(record(ts)) for ts in range(22, 27)]
    times = durable_at(k, [first] + riders)
    k.run(until=k.now + 1.0)
    assert log.stats.group_sizes == [20, 1, 5]
    assert len({times[e] for e in riders}) == 1
    assert times[riders[0]] > times[first]


def test_group_commit_max_chunks_large_batches():
    k, log = make_log(max_group=8)
    append_all(k, log, [record(ts) for ts in range(1, 21)])
    assert log.stats.group_sizes == [8, 8, 4]


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


@pytest.mark.kills_process
def test_out_of_order_append_rejected():
    k, log = make_log()
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
