"""Unit tests for the write-ahead log."""

import pytest

from repro.dfs import DataNode, DfsClient, NameNode
from repro.kvstore.wal import (
    ASYNC, SYNC, WriteAheadLog, fetch_region_records, wal_dir,
)
from repro.sim import Kernel, Network, Node


def make_wal(mode=ASYNC, sync_interval=0.05, roll_records=5000, n_dns=2):
    k = Kernel(seed=97)
    net = Network(k)
    NameNode(k, net)
    dns = [DataNode(k, net, f"dn{i}") for i in range(n_dns)]
    host = Node(k, net, "rs0")
    dfs = DfsClient(host, replication=2)
    k.run(until=0.01)
    wal = WriteAheadLog(
        host, dfs, mode=mode, sync_interval=sync_interval,
        local_datanode="dn0", roll_records=roll_records,
    )
    k.run_until_complete(k.process(wal.open()))
    return k, host, dfs, wal, dns


def run(k, gen):
    return k.run_until_complete(k.process(gen))


def test_append_returns_sequence_numbers():
    k, _host, _dfs, wal, _dns = make_wal()
    s1 = wal.append("r1", 10, [("a", "f", 10, "v")])
    s2 = wal.append("r1", 11, [("b", "f", 11, "v")])
    assert (s1, s2) == (1, 2)
    assert wal.pending == 2


def test_group_syncer_persists_in_background():
    k, _host, dfs, wal, _dns = make_wal(sync_interval=0.05)
    wal.append("r1", 10, [("a", "f", 10, "v")])
    k.run(until=k.now + 0.5)
    assert wal.pending == 0
    assert wal.synced_seq == 1
    records, _report = run(k, fetch_region_records(dfs, wal.path, ["r1"]))
    assert records == [("r1", 10, [("a", "f", 10, "v")])]


def test_sync_through_waits_for_specific_record():
    k, _host, _dfs, wal, _dns = make_wal(sync_interval=10.0)  # syncer idle
    seq = wal.append("r1", 10, [("a", "f", 10, "v")])

    def syncer():
        result = yield from wal.sync_through(seq)
        return result

    assert run(k, syncer()) >= seq
    assert wal.pending == 0


def test_lose_buffer_drops_unsynced_only():
    k, _host, dfs, wal, _dns = make_wal(sync_interval=10.0)
    wal.append("r1", 10, [("a", "f", 10, "v")])
    run(k, wal.sync())
    wal.append("r1", 11, [("b", "f", 11, "v")])
    wal.lose_buffer()  # crash: record 2 was never durable
    records, _report = run(k, fetch_region_records(dfs, wal.path, ["r1"]))
    assert [ts for _r, ts, _c in records] == [10]


def test_rolls_create_new_closed_segments():
    k, _host, dfs, wal, _dns = make_wal(sync_interval=10.0, roll_records=2)
    for ts in range(1, 7):
        wal.append("r1", ts, [("a", "f", ts, "v")])
        run(k, wal.sync())
    assert wal.rolls >= 2

    def list_segments():
        result = yield from dfs.list_dir(wal_dir("rs0"))
        return result

    segments = run(k, list_segments())
    assert len(segments) == wal.rolls + 1

    def all_records():
        out = []
        for path in segments:
            records, _report = yield from fetch_region_records(dfs, path, ["r1"])
            out.extend(records)
        return out

    records = run(k, all_records())
    assert [ts for _r, ts, _c in records] == list(range(1, 7))

    def closed_flags():
        out = []
        for path in segments:
            meta = yield from dfs.stat(path)
            out.append(meta["closed"])
        return out

    flags = run(k, closed_flags())
    assert flags.count(False) == 1  # only the active segment is open


def test_concurrent_syncs_group_naturally():
    k, _host, _dfs, wal, _dns = make_wal(sync_interval=100.0)
    for ts in range(1, 11):
        wal.append("r1", ts, [("a", "f", ts, "v")])

    def one_sync():
        yield from wal.sync()

    procs = [k.process(one_sync()) for _ in range(5)]

    def waiter():
        yield k.all_of(procs)

    run(k, waiter())
    assert wal.synced_seq == 10
    # The first sync took everything; the rest were no-ops.
    assert wal.sync_count == 1


def test_invalid_mode_rejected():
    k = Kernel()
    net = Network(k)
    host = Node(k, net, "x")
    with pytest.raises(ValueError):
        WriteAheadLog(host, DfsClient(host), mode="nope")
