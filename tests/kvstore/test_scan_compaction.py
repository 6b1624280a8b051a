"""Tests for range scans, compaction, and WAL rolling."""

import pytest

from repro import ClusterConfig, SimCluster, TABLE
from repro.config import KvSettings
from repro.kvstore.keys import Cell, row_key
from tests.kvstore.conftest import MiniCluster


@pytest.fixture(scope="module")
def scan_cluster():
    config = ClusterConfig(seed=81)
    config.workload.n_rows = 500
    config.kv.n_regions = 4
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster, cluster.add_client("scanner")


class TestScan:
    def test_scan_within_one_region(self, scan_cluster):
        cluster, handle = scan_cluster

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(10), row_key(15)))

        rows = cluster.run(scan())
        assert [r for r, _v in rows] == [row_key(i) for i in range(10, 15)]
        assert all(v == f"init-{int(r[4:])}" for r, v in rows)

    def test_scan_spans_regions(self, scan_cluster):
        cluster, handle = scan_cluster

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(100), row_key(300)))

        rows = cluster.run(scan())
        assert len(rows) == 200
        assert rows[0][0] == row_key(100)
        assert rows[-1][0] == row_key(299)

    def test_scan_sees_committed_updates_at_snapshot(self, scan_cluster):
        cluster, handle = scan_cluster

        def update():
            ctx = yield from handle.txn.begin()
            handle.txn.write(ctx, TABLE, row_key(20), "updated-20")
            yield from handle.txn.commit(ctx, wait_flush=True)
            return ctx

        ctx = cluster.run(update())

        def scan_after():
            c2 = yield from handle.txn.begin()
            return (yield from handle.txn.scan(c2, TABLE, row_key(20), row_key(21)))

        assert cluster.run(scan_after()) == [(row_key(20), "updated-20")]

    def test_scan_overlays_own_writes_and_deletes(self, scan_cluster):
        cluster, handle = scan_cluster

        def txn():
            ctx = yield from handle.txn.begin()
            handle.txn.write(ctx, TABLE, row_key(30), "mine-30")
            handle.txn.delete(ctx, TABLE, row_key(31))
            rows = yield from handle.txn.scan(ctx, TABLE, row_key(30), row_key(33))
            yield from handle.txn.abort(ctx)
            return rows

        rows = cluster.run(txn())
        assert (row_key(30), "mine-30") in rows
        assert all(r != row_key(31) for r, _v in rows)
        assert (row_key(32), "init-32") in rows

    def test_scan_limit(self, scan_cluster):
        cluster, handle = scan_cluster

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(0), None, limit=7))

        rows = cluster.run(scan())
        assert len(rows) == 7

    def test_scan_open_ended(self, scan_cluster):
        cluster, handle = scan_cluster

        def scan():
            ctx = yield from handle.txn.begin()
            return (yield from handle.txn.scan(ctx, TABLE, row_key(495), None))

        rows = cluster.run(scan())
        assert [r for r, _v in rows] == [row_key(i) for i in range(495, 500)]


def test_scan_resumes_past_a_run_of_deleted_rows():
    """A row whose newest cell is a tombstone does not count toward the
    limit: a run of them must not end the region's share of the scan."""
    config = ClusterConfig(seed=81)
    config.workload.n_rows = 500
    config.kv.n_regions = 4  # 125 rows each
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    handle = cluster.add_client("scanner")

    def delete_run():
        ctx = yield from handle.txn.begin()
        for i in range(10, 20):
            handle.txn.delete(ctx, TABLE, row_key(i))
        yield from handle.txn.commit(ctx, wait_flush=True)

    cluster.run(delete_run())

    def scan(limit):
        ctx = yield from handle.txn.begin()
        return (yield from handle.txn.scan(ctx, TABLE, row_key(10), None, limit=limit))

    for limit in (5, 10, 12):
        rows = cluster.run(scan(limit))
        assert [r for r, _v in rows] == [row_key(i) for i in range(20, 20 + limit)]


class ScanRegion:
    """One region of a MiniCluster holding ``n_rows`` rows in each of
    ``n_files`` store files (8 rows to the block), driven through
    ``rpc_scan`` directly."""

    ROWS_PER_BLOCK = 8

    def __init__(self, n_files=3, n_rows=200):
        self.mini = MiniCluster(
            kv_settings=KvSettings(
                memstore_flush_entries=100_000, rows_per_block=self.ROWS_PER_BLOCK
            )
        )
        self.region_id = "t,"
        self.rs = next(rs for rs in self.mini.servers if self.region_id in rs.regions)
        self.region = self.rs.regions[self.region_id]
        self.rows = [f"a{i:03d}" for i in range(n_rows)]
        for ts in range(1, n_files + 1):
            self.mini.put(ts, self.rows)
            self.mini.run(self.rs._flush_region(self.region))
        assert len(self.region.sstables) == n_files
        assert all(sst.n_blocks >= 20 for sst in self.region.sstables)
        self.n_files = n_files

    def scan_process(self, limit):
        """An ``rpc_scan`` from the first row; its value is ``(reply,
        simulated seconds)``, timed around the call inside the process."""
        kernel = self.mini.kernel

        def timed():
            started = kernel.now
            reply = yield from self.rs.rpc_scan(
                "app", self.region_id, self.rows[0], None, 99, limit
            )
            return reply, kernel.now - started

        return kernel.process(timed())

    def scan(self, limit):
        return self.mini.kernel.run_until_complete(self.scan_process(limit))

    def blocks_allowed(self, limit):
        return self.n_files * (-(-limit // self.ROWS_PER_BLOCK) + 1)


class TestScanIsBounded:
    """A scan touches the blocks its rows are in, not the rest of the region."""

    def test_warm_scan_probes_only_the_blocks_it_returns_from(self):
        sr = ScanRegion()
        sr.scan(len(sr.rows))  # warm every block
        cache = sr.rs.cache
        for limit in (1, 8, 10, 20, 50):
            probes = cache.hits + cache.misses
            reply, _elapsed = sr.scan(limit)
            assert len({row for row, *_rest in reply["cells"]}) == limit
            assert reply["more"]
            probes = cache.hits + cache.misses - probes
            assert probes <= sr.blocks_allowed(limit)
            if limit == 10:
                assert probes <= 2 * sr.n_files

    def test_cold_scan_reads_and_waits_for_only_those_blocks(self):
        sr = ScanRegion()
        cache = sr.rs.cache
        cache.clear()
        misses = cache.misses
        reply, bounded_s = sr.scan(10)
        assert [row for row, *_rest in reply["cells"]] == sr.rows[:10]
        assert cache.misses - misses <= 2 * sr.n_files
        # What any scan cost while it read to the region's end: every block.
        cache.clear()
        misses = cache.misses
        _reply, all_blocks_s = sr.scan(len(sr.rows))
        assert cache.misses - misses == sum(s.n_blocks for s in sr.region.sstables)
        assert bounded_s < all_blocks_s / 5

    @pytest.mark.parametrize("parked_on_miss", [1, 5])
    def test_put_and_flush_handover_while_parked_on_a_miss(self, parked_on_miss):
        sr = ScanRegion()
        sr.mini.put(10, ["a0075", "a0405"])  # memstore rows from the start
        cache, memstore = sr.rs.cache, sr.region.memstore
        cache.clear()
        misses = cache.misses
        proc = sr.scan_process(limit=60)
        while cache.misses < misses + parked_on_miss:
            sr.mini.kernel.step()
        assert not proc.triggered  # suspended in _cached_block
        # The memstore side stands at a0075 (first miss) or a0405 (fifth).
        memstore.put(Cell("a0005", "f", 11, "behind"))
        memstore.put(Cell("a0505", "f", 11, "ahead"))
        memstore.snapshot_for_flush()  # the scan keeps the map it started on
        memstore.put(Cell("a0105", "f", 12, "too-late"))  # not in the scan's maps
        memstore.discard_flush_snapshot()  # as if the flush completed
        reply, _elapsed = sr.mini.kernel.run_until_complete(proc)
        got = [row for row, *_rest in reply["cells"]]
        assert got == sorted(set(got))  # ascending, none twice
        assert len(got) == 60
        assert set(sr.rows[:55]) <= set(got)
        assert {"a0075", "a0405", "a0505"} <= set(got)
        assert "a0005" not in got and "a0105" not in got


class TestCompaction:
    def test_many_flushes_trigger_compaction(self):
        mini = MiniCluster(
            kv_settings=KvSettings(memstore_flush_entries=20, compaction_threshold=3)
        )
        ts = 0
        for batch in range(8):
            for n in range(25):
                ts += 1
                mini.put(ts, [f"row{ts:05d}"])
            mini.kernel.run(until=mini.kernel.now + 1.0)  # let flusher work
        mini.kernel.run(until=mini.kernel.now + 5.0)
        compactions = sum(rs.metrics()["counters"]["compactions"] for rs in mini.servers)
        assert compactions >= 1
        # Every written value still readable after merges + file deletion.
        for probe in (1, 50, 120, ts):
            assert mini.get(f"row{probe:05d}", ts + 1) == (
                probe, f"v-row{probe:05d}-{probe}"
            )
        # Store-file count per region is bounded again.
        for rs in mini.servers:
            for region in rs.regions.values():
                assert len(region.sstables) <= 4


class TestWalRolling:
    def test_wal_rolls_and_recovery_replays_across_segments(self):
        mini = MiniCluster(
            kv_settings=KvSettings(memstore_flush_entries=100_000)
        )
        for rs in mini.servers:
            rs.wal.roll_records = 5  # force frequent rolls
        for ts in range(1, 41):
            mini.put(ts, [f"k{ts:03d}"])
        mini.kernel.run(until=mini.kernel.now + 2.0)
        assert any(rs.wal.rolls > 0 for rs in mini.servers)
        mini.crash_machine(0)
        mini.kernel.run(until=mini.kernel.now + 10.0)
        # All synced updates recovered, regardless of which segment they
        # landed in.
        for ts in range(1, 41):
            assert mini.get(f"k{ts:03d}", 100) == (ts, f"v-k{ts:03d}-{ts}")
