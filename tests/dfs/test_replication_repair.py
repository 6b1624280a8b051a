"""Tests for datanode-failure repair: re-replication and degraded pipelines."""

import pytest

from repro.dfs import DataNode, DfsClient, NameNode
from repro.sim import Kernel, Network, Node


@pytest.fixture
def repair_env():
    k = Kernel(seed=91)
    net = Network(k)
    nn = NameNode(k, net, repair_interval=0.5)
    dns = [DataNode(k, net, f"dn{i}") for i in range(3)]
    host = Node(k, net, "host")
    client = DfsClient(host, replication=2)
    k.run(until=0.01)
    return k, net, nn, dns, host, client


def run(k, gen):
    return k.run_until_complete(k.process(gen))


def test_closed_file_rereplicated_after_datanode_loss(repair_env):
    k, _net, nn, dns, _host, client = repair_env
    replicas = run(k, client.create("/f"))
    run(k, client.append("/f", [("a", 50), ("b", 50)]))
    run(k, client.close("/f"))

    by_addr = {dn.addr: dn for dn in dns}
    by_addr[replicas[0]].crash()
    k.run(until=k.now + 5.0)

    assert nn.repairs_completed == 1
    meta = run(k, client.stat("/f"))
    assert len(meta["replicas"]) == 2
    assert replicas[0] not in meta["replicas"]
    # The new replica actually holds the data, durably.
    new_dn = next(a for a in meta["replicas"] if a not in replicas)
    stored = by_addr[new_dn].replica("/f")
    assert stored is not None
    assert [r.payload for r in stored.durable_records()] == ["a", "b"]


def test_open_file_keeps_degraded_pipeline(repair_env):
    k, _net, nn, dns, _host, client = repair_env
    replicas = run(k, client.create("/wal"))
    run(k, client.append("/wal", [("r1", 20)]))
    by_addr = {dn.addr: dn for dn in dns}
    survivor = replicas[1]
    by_addr[replicas[0]].crash()
    k.run(until=k.now + 3.0)

    # Not cloned (the file is open), but appends keep flowing to the
    # surviving replica.
    run(k, client.append("/wal", [("r2", 20)]))
    data = run(k, client.read("/wal"))
    assert [p for p, _n in data] == ["r1", "r2"]
    # The dark replica stays listed: it still holds its synced prefix on
    # disk and serves it again if it comes back, so only closed files are
    # pruned (and cloned).  Writers exclude it from pipelines themselves.
    meta = run(k, client.stat("/wal"))
    assert set(meta["replicas"]) == set(replicas)
    assert survivor in meta["replicas"]


def test_reads_survive_during_repair_window(repair_env):
    k, _net, _nn, dns, _host, client = repair_env
    replicas = run(k, client.create("/g"))
    run(k, client.append("/g", [("x", 10)]))
    run(k, client.close("/g"))
    by_addr = {dn.addr: dn for dn in dns}
    by_addr[replicas[0]].crash()
    # Immediately, before the monitor has repaired anything:
    data = run(k, client.read("/g"))
    assert [p for p, _n in data] == ["x"]


def test_no_repair_possible_with_no_spare_datanodes():
    k = Kernel(seed=92)
    net = Network(k)
    nn = NameNode(k, net, repair_interval=0.5)
    dns = [DataNode(k, net, f"dn{i}") for i in range(2)]
    host = Node(k, net, "host")
    client = DfsClient(host, replication=2)
    k.run(until=0.01)
    replicas = k.run_until_complete(k.process(client.create("/f")))
    k.run_until_complete(k.process(client.append("/f", [("a", 10)])))
    k.run_until_complete(k.process(client.close("/f")))
    by_addr = {dn.addr: dn for dn in dns}
    by_addr[replicas[0]].crash()
    k.run(until=k.now + 3.0)
    assert nn.repairs_completed == 0  # nowhere to put a new replica
    # Data still readable from the survivor.
    data = k.run_until_complete(k.process(client.read("/f")))
    assert [p for p, _n in data] == ["a"]


def test_returning_datanode_reports_blocks_and_rejoins_replica_sets(repair_env):
    """Regression: pruning must not be forever.

    The monitor prunes an unreachable holder from a closed file's replica
    set and re-replicates -- but re-replication clones whatever the source
    has, damage included.  If the pruned node later returns, its block
    report must re-add it, or the only intact copy in the cluster is
    never consulted again (seen as whole-region data loss in the chaos
    sweep before datanodes sent block reports on revive).
    """
    k, _net, nn, dns, _host, client = repair_env
    # WAL-shaped records: (region, txn_ts, cells).
    wal_records = [("R", ts, [(f"row{ts}", "f", ts, "v")]) for ts in (1, 2)]
    replicas = run(k, client.create("/f"))
    run(k, client.append("/f", [(record, 30) for record in wal_records]))
    run(k, client.close("/f"))
    by_addr = {dn.addr: dn for dn in dns}

    # Take the first holder dark until the monitor prunes and re-clones.
    gone = by_addr[replicas[0]]
    gone.crash()
    k.run(until=k.now + 5.0)
    meta = run(k, client.stat("/f"))
    assert gone.addr not in meta["replicas"]

    # Damage record 0 on every *listed* copy: the only intact copy of
    # that record now lives on the pruned, dark node.
    for addr in meta["replicas"]:
        by_addr[addr].replica("/f").records[0].damage()

    gone.revive()
    k.run(until=k.now + 3.0)
    meta = run(k, client.stat("/f"))
    assert gone.addr in meta["replicas"]

    # Salvage reads the returned holder's copy: nothing is lost.
    records, report = run(k, client.read_region_salvaged("/f", ["R"]))
    assert [p for p, _n in records] == wal_records
    assert not report.dropped
