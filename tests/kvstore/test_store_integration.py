"""Integration tests for the key-value store (no transaction manager yet:
write-sets are flushed directly through the KvClient)."""

import pytest

from repro.config import KvSettings
from repro.dfs import DfsClient
from repro.errors import KvError
from repro.metrics import tracer_for
from tests.kvstore.conftest import MiniCluster


def test_put_then_get(mini):
    mini.put(10, ["aaa", "zzz"])  # spans both regions ("m" split)
    assert mini.get("aaa", 10) == (10, "v-aaa-10")
    assert mini.get("zzz", 10) == (10, "v-zzz-10")


def test_snapshot_reads_see_older_versions(mini):
    mini.put(10, ["k"])
    mini.put(20, ["k"])
    assert mini.get("k", 15) == (10, "v-k-10")
    assert mini.get("k", 25) == (20, "v-k-20")
    assert mini.get("k", 5) is None


def test_get_missing_row_returns_none(mini):
    assert mini.get("nothing", 100) is None


def test_regions_distributed_across_servers(mini):
    status = mini.run(mini.call("master", "cluster_status"))
    assigned = set(status["assignments"].values())
    assert assigned == {"rs0", "rs1"}
    assert all(status["online"].values())


def test_duplicate_flush_is_idempotent(mini):
    mini.put(10, ["k"])
    mini.put(10, ["k"])  # replay of the same write-set
    assert mini.get("k", 10) == (10, "v-k-10")
    # Only one version exists below a later snapshot.
    assert mini.get("k", 99) == (10, "v-k-10")


def test_memstore_flush_creates_sstable_and_reads_survive():
    mini = MiniCluster(kv_settings=KvSettings(memstore_flush_entries=50))
    for ts in range(1, 61):
        mini.put(ts, [f"row{ts:04d}"])
    mini.kernel.run(until=mini.kernel.now + 5.0)  # let the flusher run
    flushed = sum(rs.metrics()["counters"]["flushes"] for rs in mini.servers)
    assert flushed >= 1
    for ts in (1, 30, 60):
        assert mini.get(f"row{ts:04d}", 100) == (ts, f"v-row{ts:04d}-{ts}")


def test_server_crash_recovers_synced_updates():
    mini = MiniCluster()
    mini.put(10, ["aaa", "zzz"])
    # Async WAL group-sync interval is 50 ms; give it time to persist.
    mini.kernel.run(until=mini.kernel.now + 1.0)
    mini.crash_machine(0)
    mini.kernel.run(until=mini.kernel.now + 10.0)  # detect + reassign + replay
    status = mini.run(mini.call("master", "cluster_status"))
    assert status["live_servers"] == ["rs1"]
    assert set(status["assignments"].values()) == {"rs1"}
    assert all(status["online"].values())
    assert status["failures_handled"] == 1
    assert mini.get("aaa", 10) == (10, "v-aaa-10")
    assert mini.get("zzz", 10) == (10, "v-zzz-10")


def test_server_crash_loses_unsynced_updates_without_recovery_middleware():
    # WAL sync interval huge: the update never becomes durable before the
    # crash, and with no recovery middleware it is simply gone.  This is
    # the failure mode the paper's contribution exists to close.
    mini = MiniCluster(
        kv_settings=KvSettings(memstore_flush_entries=100_000, wal_sync_interval=300.0)
    )
    mini.put(10, ["aaa", "zzz"])
    victim = mini.run(mini.client.locate("t", "aaa"))[1]
    index = int(victim[-1])
    mini.crash_machine(index)
    mini.kernel.run(until=mini.kernel.now + 10.0)
    assert mini.get("aaa", 10) is None  # lost: not persisted, no middleware
    assert mini.get("zzz", 10) is not None  # other machine kept it


def test_client_blocks_and_retries_through_outage():
    mini = MiniCluster()
    mini.put(10, ["aaa"])
    mini.kernel.run(until=mini.kernel.now + 1.0)
    victim = mini.run(mini.client.locate("t", "aaa"))[1]
    index = int(victim[-1])
    mini.crash_machine(index)

    # Issue the read immediately: it must retry through detection and
    # region reassignment and eventually succeed.
    start = mini.kernel.now
    result = mini.get("aaa", 10)
    assert result == (10, "v-aaa-10")
    assert mini.kernel.now - start > 0.5  # it actually had to wait
    assert mini.client.metrics()["counters"]["retries"] > 0


def test_flush_write_set_spanning_regions_returns_ack_per_region(mini):
    cells = [("aaa", "f", 7, "x"), ("zzz", "f", 7, "y")]
    acks = mini.run(mini.client.flush_write_set("t", 7, cells))
    assert len(acks) == 2


def test_bounded_get_retries_raise(mini):
    mini.crash_machine(0)
    mini.crash_machine(1)
    with pytest.raises(KvError):
        mini.get("aaa", 10, max_retries=2)


def test_region_open_replays_a_file_listed_under_recovered(mini):
    # A header-less file under /recovered/<region>/ comes back through the
    # same replay as a failover's WAL fragments.
    region, source = mini.run(mini.client.locate("t", "aaa"))
    target = "rs1" if source == "rs0" else "rs0"
    dfs = DfsClient(mini.app)
    path = f"/recovered/{region}/edits"
    mini.run(dfs.create(path))
    mini.run(dfs.append(path, [((region, 7, [("aaa", "f", 7, "recovered")]), 64)]))
    mini.run(mini.call("master", "move_region", region=region, target=target))
    replays = tracer_for(mini.kernel).spans(stage="recovery.fragment_replay")
    assert [
        (span.tags["region"], span.tags["segments"], span.tags["cells"])
        for span in replays
    ] == [(region, 1, 1)]
    assert mini.get("aaa", 10) == (7, "recovered")
