"""Checksum verification, cross-replica repair, and salvaging reads."""

import pytest

from repro.config import DiskFaultSettings
from repro.dfs import DataNode, DfsClient, NameNode
from repro.errors import DfsError
from repro.kvstore.wal import fetch_region_records, wal_dir
from repro.sim import Kernel, Network, Node
from repro.storage import SegmentHeader


@pytest.fixture
def cluster():
    k = Kernel(seed=21)
    net = Network(k)
    nn = NameNode(k, net)
    dns = [DataNode(k, net, f"dn{i}") for i in range(3)]
    host = Node(k, net, "host")
    client = DfsClient(host, replication=2)
    k.run(until=0.01)
    return k, net, nn, dns, host, client


def run(k, gen):
    return k.run_until_complete(k.process(gen))


def replica_holders(dns, path):
    return [dn for dn in dns if dn.replica(path) is not None]


def write_file(k, client, path, n=5):
    replicas = run(k, client.create(path))
    run(k, client.append(path, [(f"r{i}", 50) for i in range(n)]))
    return replicas


class TestVerifiedReads:
    def test_records_are_framed_with_crcs(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_file(k, client, "/t/f")
        stored = replica_holders(dns, "/t/f")[0].replica("/t/f")
        assert all(r.crc is not None for r in stored.records)
        assert all(r.state == "ok" for r in stored.records)

    def test_read_skips_damaged_replica(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        replicas = write_file(k, client, "/t/f")
        # Damage the replica the client tries first.
        first = next(dn for dn in dns if dn.addr == replicas[0])
        first.replica("/t/f").records[2].damage()
        data = run(k, client.read("/t/f"))
        assert [p for p, _n in data] == [f"r{i}" for i in range(5)]
        assert client.corrupt_reads == 1

    def test_read_repairs_damaged_replica_in_background(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        replicas = write_file(k, client, "/t/f")
        bad = next(dn for dn in dns if dn.addr == replicas[0])
        bad.replica("/t/f").records[2].damage()
        run(k, client.read("/t/f"))
        k.run(until=k.now + 1.0)  # let the repair cast land
        assert client.records_repaired == 1
        assert bad.repairs_received == 1
        assert bad.replica("/t/f").records[2].state == "ok"
        # A second read sees two healthy replicas again.
        client.corrupt_reads = 0
        run(k, client.read("/t/f"))
        assert client.corrupt_reads == 0

    def test_read_fails_when_every_replica_is_damaged(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_file(k, client, "/t/f")
        for dn in replica_holders(dns, "/t/f"):
            dn.replica("/t/f").records[0].damage()
        with pytest.raises(DfsError, match="damaged"):
            run(k, client.read("/t/f"))

    def test_repair_refuses_to_clobber_good_records(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_file(k, client, "/t/f")
        dn = replica_holders(dns, "/t/f")[0]
        result = run(k, dn.rpc_repair_record("host", "/t/f", 1, "evil", 50))
        assert result is False
        assert dn.replica("/t/f").records[1].payload == "r1"


#: A WAL segment of server rs0: its header, then records alternating
#: between regions "A" (indices 1, 3, 5) and "B" (indices 2, 4).
SEGMENT = wal_dir("rs0") + "wal-e0000-000000.log"
HEADER = SegmentHeader(writer="rs0", epoch=0, segment=0).to_wire()


def wal_record(index):
    region = "A" if index % 2 else "B"
    return (region, index, [(f"row{index}", "f", index, f"v{index}")])


def write_segment(k, client, path=SEGMENT, header=HEADER):
    run(k, client.create(path, scatter=True))
    run(k, client.append(
        path, [(header, 32)] + [(wal_record(i), 64) for i in range(1, 6)]
    ))


def region_a(indices):
    return [HEADER] + [wal_record(i) for i in indices]


class TestRegionFilteredSalvagingRead:
    """``read_region_salvaged`` -- the one salvaging read, run by every
    failover: clean, merge, truncate, repair and survive, then what the
    region filter adds."""

    def read_a(self, k, client):
        records, report = run(k, client.read_region_salvaged(SEGMENT, ["A"]))
        return [p for p, _n in records], report

    def test_clean_segment_reports_clean(self, cluster):
        k, _net, _nn, _dns, _host, client = cluster
        write_segment(k, client)
        payloads, report = self.read_a(k, client)
        assert payloads == region_a([1, 3, 5])
        assert report.clean and report.total == report.kept == 6
        assert client.salvages == 0

    def test_merges_damage_at_different_indices(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_segment(k, client)
        a, b = replica_holders(dns, SEGMENT)
        a.replica(SEGMENT).records[1].damage()
        b.replica(SEGMENT).records[3].damage()
        payloads, report = self.read_a(k, client)
        assert payloads == region_a([1, 3, 5])
        assert report.repaired == 2  # both salvaged from the peer
        assert report.dropped == 0
        assert not report.clean
        assert client.salvage_reports[-1] is report

    def test_truncates_where_no_replica_is_intact(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_segment(k, client)
        for dn in replica_holders(dns, SEGMENT):
            dn.replica(SEGMENT).records[3].damage()
        payloads, report = self.read_a(k, client)
        assert payloads == region_a([1])
        assert report.reason == "corrupt-record"
        assert (report.kept, report.dropped) == (3, 3)
        # Each lost record counts once, from the copy the merge picked:
        # rotten index 3 and intact index 5 (64 B each) of region A; index
        # 4 is B's, vouched for by the backups and none of our bytes.
        assert (report.corrupt, report.torn, report.bytes_truncated) == (1, 0, 128)
        assert client.salvages == 1

    def test_repairs_salvageable_copies(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_segment(k, client)
        bad = replica_holders(dns, SEGMENT)[0]
        bad.replica(SEGMENT).records[1].damage()
        self.read_a(k, client)
        k.run(until=k.now + 1.0)
        assert bad.replica(SEGMENT).records[1].state == "ok"
        assert bad.repairs_received == 1

    def test_survives_one_dead_replica(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_segment(k, client)
        a, b = replica_holders(dns, SEGMENT)
        b.replica(SEGMENT).records[5].damage()
        a.crash()
        payloads, report = self.read_a(k, client)
        # Only the damaged replica is reachable: its rot truncates.
        assert payloads == region_a([1, 3])
        assert report.reason == "corrupt-record"

    def test_dark_replica_is_counted_missing(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_segment(k, client)
        replica_holders(dns, SEGMENT)[0].crash()
        payloads, report = self.read_a(k, client)
        assert payloads == region_a([1, 3, 5])
        assert report.clean
        assert report.replicas_missing == 1

    def test_other_regions_damage_is_vouched_for_by_a_filtering_peer(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_segment(k, client)
        a, _b = replica_holders(dns, SEGMENT)
        a.replica(SEGMENT).records[2].damage()  # a record of region B
        payloads, report = self.read_a(k, client)
        # The peer verified its copy to read the region id and filtered it
        # out: intact somewhere, so no truncation -- and not ours to return.
        assert payloads == region_a([1, 3, 5])
        assert report.reason == "clean"
        assert (report.kept, report.dropped) == (6, 0)

    def test_other_regions_damage_on_every_replica_truncates(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_segment(k, client)
        for dn in replica_holders(dns, SEGMENT):
            dn.replica(SEGMENT).records[2].damage()
        payloads, report = self.read_a(k, client)
        # Nobody can vouch for the record's region id: it may be ours.
        assert payloads == region_a([1])
        assert report.reason == "corrupt-record"
        assert (report.kept, report.dropped) == (2, 4)

    def test_backup_returns_damaged_copies_of_any_region(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_segment(k, client)
        dn = replica_holders(dns, SEGMENT)[0]
        dn.replica(SEGMENT).records[2].damage()  # region B, not requested
        reply = run(k, dn.rpc_read_filtered("host", SEGMENT, ["A"]))
        assert reply["total"] == 6
        assert [(i, state) for i, _p, _n, state in reply["entries"]] == [
            (0, "ok"), (1, "ok"), (2, "corrupt"), (3, "ok"), (5, "ok"),
        ]

    def test_fetch_strips_the_header_and_rejects_a_foreign_writer(self, cluster):
        k, _net, _nn, _dns, _host, client = cluster
        write_segment(k, client)
        payloads, report = run(k, fetch_region_records(client, SEGMENT, ["A"]))
        assert payloads == [wal_record(i) for i in (1, 3, 5)]
        assert report.clean
        spliced = wal_dir("rs0") + "wal-e0000-000001.log"
        foreign = SegmentHeader(writer="rs9", epoch=0, segment=1).to_wire()
        write_segment(k, client, path=spliced, header=foreign)
        payloads, report = run(k, fetch_region_records(client, spliced, ["A"]))
        assert payloads == []
        assert report.reason == "foreign-segment"
        assert (report.kept, report.dropped) == (0, 6)


class TestCrashTearing:
    def make_torn(self, cluster, n=6):
        """Crash a datanode holding an un-synced tail with tearing on."""
        k, _net, _nn, dns, _host, client = cluster
        run(k, client.create("/t/f"))
        run(k, client.append("/t/f", [(f"r{i}", 50) for i in range(3)]))
        dn = replica_holders(dns, "/t/f")[0]
        stored = dn.replica("/t/f")
        # Simulate acknowledged-but-volatile records (lying fsync): extend
        # the replica beyond its synced watermark.
        for i in range(3, n):
            stored.records.append(dn._store(f"r{i}", 50))
        dn.disk.configure_faults(torn_write_probability=1.0)
        dn.crash()
        return k, dns, client, dn, stored

    def test_crash_tears_the_unsynced_tail(self, cluster):
        _k, _dns, _client, dn, stored = self.make_torn(cluster)
        # A prefix of the tail landed, one record is torn, rest are gone.
        assert stored.synced == len(stored.records)
        assert 3 < len(stored.records) <= 6
        assert stored.records[-1].state == "torn"
        assert all(r.state == "ok" for r in stored.records[:-1])
        assert dn.disk.torn_writes == 1

    def test_clean_crash_discards_the_tail(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        run(k, client.create("/t/f"))
        run(k, client.append("/t/f", [("a", 50)]))
        dn = replica_holders(dns, "/t/f")[0]
        stored = dn.replica("/t/f")
        stored.records.append(dn._store("volatile", 50))
        dn.crash()  # torn_write_probability is 0
        assert [r.payload for r in stored.records] == ["a"]

    def test_cloning_preserves_damage(self, cluster):
        k, _net, _nn, dns, _host, client = cluster
        write_file(k, client, "/t/f", n=3)
        src = replica_holders(dns, "/t/f")[0]
        src.replica("/t/f").records[1].damage()
        spare = next(dn for dn in dns if dn.replica("/t/f") is None)

        def clone():
            result = yield from src.rpc_clone_to("test", "/t/f", spare.addr)
            return result

        run(k, clone())
        cloned = spare.replica("/t/f")
        assert cloned is not None
        assert cloned.records[1].state == "corrupt"
        assert cloned.records[0].state == "ok"
