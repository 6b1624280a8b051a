"""Unit and integration tests for the simulated distributed filesystem."""

import pytest

from repro.config import DiskSettings
from repro.dfs import DataNode, DfsClient, NameNode
from repro.errors import DfsError, FileAlreadyExists, FileNotFound, RemoteError
from repro.sim import Kernel, Network, Node


@pytest.fixture
def cluster():
    k = Kernel(seed=1)
    net = Network(k)
    nn = NameNode(k, net)
    dns = [DataNode(k, net, f"dn{i}") for i in range(3)]
    host = Node(k, net, "host")
    client = DfsClient(host, replication=2)
    k.run(until=0.01)  # let datanode registrations land
    return k, net, nn, dns, host, client


def run(k, gen):
    """Drive a client generator to completion and return its value."""
    return k.run_until_complete(k.process(gen))


def test_create_assigns_replicas(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    replicas = run(k, client.create("/t/file1"))
    assert len(replicas) == 2
    assert all(r.startswith("dn") for r in replicas)


def test_create_prefers_local_datanode(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    replicas = run(k, client.create("/t/file1", preferred="dn2"))
    assert replicas[0] == "dn2"


def test_double_create_fails(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    run(k, client.create("/t/f"))
    with pytest.raises(RemoteError, match="FileAlreadyExists"):
        run(k, client.create("/t/f"))


def test_append_then_read_roundtrip(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("a", 10), ("b", 20)]))
    run(k, client.append("/t/f", [("c", 30)]))
    data = run(k, client.read("/t/f"))
    assert [p for p, _n in data] == ["a", "b", "c"]


def test_append_replicates_to_all_replicas(cluster):
    k, _net, _nn, dns, _host, client = cluster
    replicas = run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("x", 10)]))
    by_addr = {dn.addr: dn for dn in dns}
    for addr in replicas:
        stored = by_addr[addr].replica("/t/f")
        assert stored is not None and stored.length == 1


def test_durable_append_survives_datanode_crash(cluster):
    k, _net, _nn, dns, _host, client = cluster
    replicas = run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("durable", 10)], durable=True))
    by_addr = {dn.addr: dn for dn in dns}
    by_addr[replicas[0]].crash()
    data = run(k, client.read("/t/f"))
    assert [p for p, _n in data] == ["durable"]


def test_non_durable_append_lost_on_crash_of_both_replicas(cluster):
    k, _net, _nn, dns, _host, client = cluster
    replicas = run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("volatile", 10)], durable=False))
    by_addr = {dn.addr: dn for dn in dns}
    for addr in replicas:
        by_addr[addr].crash()
        # on_crash drops the unsynced suffix
        assert by_addr[addr].replica("/t/f").length == 0


def test_sync_makes_buffered_records_durable(cluster):
    k, _net, _nn, dns, _host, client = cluster
    replicas = run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("v", 10)], durable=False))
    run(k, client.sync("/t/f"))
    by_addr = {dn.addr: dn for dn in dns}
    for addr in replicas:
        replica = by_addr[addr].replica("/t/f")
        assert replica.synced == 1


def test_read_fails_over_to_surviving_replica(cluster):
    k, _net, _nn, dns, _host, client = cluster
    replicas = run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("x", 10)]))
    by_addr = {dn.addr: dn for dn in dns}
    by_addr[replicas[0]].crash()
    data = run(k, client.read("/t/f"))
    assert [p for p, _n in data] == ["x"]


def test_read_with_offset_and_count(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [(i, 8) for i in range(10)]))
    data = run(k, client.read("/t/f", start=3, count=4))
    assert [p for p, _n in data] == [3, 4, 5, 6]


def test_stat_reports_length(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("a", 5), ("b", 5)]))
    k.run(until=k.now + 0.01)  # report_length is a cast; let it land
    meta = run(k, client.stat("/t/f"))
    assert meta["length"] == 2


def test_delete_removes_everywhere(cluster):
    k, _net, _nn, dns, _host, client = cluster
    replicas = run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("a", 5)]))
    run(k, client.delete("/t/f"))
    k.run(until=k.now + 0.01)
    by_addr = {dn.addr: dn for dn in dns}
    for addr in replicas:
        assert by_addr[addr].replica("/t/f") is None
    assert run(k, client.exists("/t/f")) is False


def test_list_dir(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    for name in ("/wal/s1.log", "/wal/s2.log", "/data/t1"):
        run(k, client.create(name))
    assert run(k, client.list_dir("/wal/")) == ["/wal/s1.log", "/wal/s2.log"]


def test_stat_unknown_path_is_remote_error(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    with pytest.raises(RemoteError, match="FileNotFound"):
        run(k, client.stat("/nope"))


def test_read_with_all_replicas_dead_raises(cluster):
    k, _net, _nn, dns, _host, client = cluster
    replicas = run(k, client.create("/t/f"))
    run(k, client.append("/t/f", [("x", 5)]))
    by_addr = {dn.addr: dn for dn in dns}
    for addr in replicas:
        by_addr[addr].crash()
    with pytest.raises(DfsError):
        run(k, client.read("/t/f"))


def test_append_pipeline_charges_latency(cluster):
    k, _net, _nn, _dns, _host, client = cluster
    run(k, client.create("/t/f"))
    before = k.now
    run(k, client.append("/t/f", [("x", 1000)], durable=True))
    elapsed = k.now - before
    # Two durable replica writes at ~4 ms each, serialised down the
    # pipeline, plus network hops: must be comfortably above one disk sync.
    assert elapsed > 0.006


def test_create_with_no_datanodes_fails():
    k = Kernel(seed=1)
    net = Network(k)
    NameNode(k, net)
    host = Node(k, net, "host")
    client = DfsClient(host, replication=2)
    with pytest.raises(RemoteError, match="NotEnoughReplicas"):
        k.run_until_complete(k.process(client.create("/t/f")))
