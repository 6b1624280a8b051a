"""Storage-fault behaviour of a commit-log store: lying fsyncs, torn
tails, latent corruption, salvage, and truncation byte accounting.

Every case runs against both hosts of a :class:`~repro.txn.log.LogStore`
-- the TM's group-committed log and a logger shard -- because they are
the same code: each ``Test*`` class drives the TM-hosted store and its
``*OnShard`` subclass repeats the cases with a shard as the host.
"""

from repro.config import DiskFaultSettings, DiskSettings, TxnSettings
from repro.sim import Kernel, Network, Node
from repro.txn.log import LogRecord, RecoveryLog
from repro.txn.loggers import LoggerShard


def settings_for(faults=None):
    return TxnSettings(
        log_disk=DiskSettings(
            sync_latency=0.002, faults=faults or DiskFaultSettings()
        ),
    )


def record(ts, client="c1"):
    return LogRecord(
        commit_ts=ts,
        client_id=client,
        cells_by_table={"t": [("r", "f", ts, "v")]},
        nbytes=96,
    )


class TmHost:
    """A store hosted by the TM: writes go through the group committer."""

    def __init__(self, faults=None, seed=5):
        self.k = Kernel(seed=seed)
        self.node = Node(self.k, Network(self.k), "tm")
        self.log = RecoveryLog(self.node, settings_for(faults))
        self.store = self.log.store

    def write(self, records):
        events = [self.log.append(r) for r in records]
        self.k.run_until_complete(self.k.all_of(events))

    def crash(self):
        self.node.crash()


class ShardHost:
    """A store hosted by a logger shard: one ``shard_append`` per batch,
    retried on a device error as the TM's batcher retries it."""

    def __init__(self, faults=None, seed=5):
        self.k = Kernel(seed=seed)
        self.node = LoggerShard(
            self.k, Network(self.k), "log0", settings=settings_for(faults)
        )
        self.store = self.node.store

    def write(self, records):
        wire = [r.to_wire() for r in records]

        def go():
            while True:
                try:
                    return (yield from self.node.rpc_shard_append("tm", wire))
                except Exception:
                    yield self.k.timeout(0.05)

        self.k.run_until_complete(self.k.process(go()))

    def crash(self):
        self.node.crash()


class TestWriteErrors:
    host = TmHost

    def test_transient_error_is_retried_not_lost(self):
        h = self.host(DiskFaultSettings(write_error_probability=0.5), seed=3)
        for ts in range(1, 21):
            h.write([record(ts)])
        assert h.store.length == 20
        assert h.store.disk.write_errors > 0
        # Every ack is backed by a genuinely stored record.
        assert h.store.fetch(0)[-1].commit_ts == 20


class TestLyingFsyncs:
    host = TmHost

    def test_durable_watermark_lags_lying_fsyncs(self):
        h = self.host(DiskFaultSettings(lost_fsync_probability=1.0))
        h.write([record(1), record(2)])
        assert h.store.length == 2
        assert h.store.durable_length == 0  # every sync lied

    def test_crash_loses_the_volatile_tail(self):
        h = self.host(DiskFaultSettings(lost_fsync_probability=1.0))
        h.write([record(1), record(2), record(3)])
        h.crash()
        assert h.store.length == 0
        assert h.store.stats.lost_unsynced == 3

    def test_genuine_sync_covers_earlier_lies(self):
        h = self.host(DiskFaultSettings(lost_fsync_probability=1.0))
        h.write([record(1), record(2)])
        h.store.disk.configure_faults(lost_fsync_probability=0.0)
        h.write([record(3)])
        assert h.store.durable_length == 3  # the honest sync covered everything
        h.crash()
        assert h.store.length == 3
        assert h.store.stats.lost_unsynced == 0

    def test_crash_without_faults_loses_nothing(self):
        h = self.host()
        h.write([record(1), record(2)])
        h.crash()
        assert h.store.length == 2


class TestTornTail:
    host = TmHost
    faults = DiskFaultSettings(
        lost_fsync_probability=1.0, torn_write_probability=1.0
    )

    def test_crash_can_tear_the_last_volatile_record(self):
        h = self.host(self.faults)
        h.write([record(ts) for ts in range(1, 6)])
        h.crash()
        # A prefix landed plus one torn record.
        assert 1 <= h.store.length <= 5
        assert h.store.file.records[-1].torn

    def test_fetch_salvages_the_torn_record_away(self):
        h = self.host(self.faults)
        h.write([record(ts) for ts in range(1, 6)])
        h.crash()
        torn_length = h.store.length
        records = h.store.fetch(0)
        # The torn record is never replayed, and the scan is audited.
        assert h.store.length == torn_length - 1
        assert [r.commit_ts for r in records] == list(range(1, torn_length))
        assert len(h.store.salvage_reports) == 1
        report = h.store.salvage_reports[0]
        assert report.reason == "torn-record"
        assert report.torn == 1
        assert report.bytes_truncated == 96


class TestCorruption:
    host = TmHost

    def test_fetch_truncates_at_the_rotted_record(self):
        h = self.host(DiskFaultSettings(corruption_probability=1.0))
        h.write([record(1)])
        h.store.disk.configure_faults(corruption_probability=0.0)
        h.write([record(2)])
        records = h.store.fetch(0)
        # Record 1 rotted; everything after it is untrusted.
        assert records == []
        assert h.store.salvage_reports[0].reason == "corrupt-record"
        assert h.store.salvage_reports[0].corrupt == 1
        assert h.store.salvage_reports[0].dropped == 2

    def test_clean_log_never_salvages(self):
        h = self.host()
        h.write([record(1), record(2)])
        assert len(h.store.fetch(0)) == 2
        assert h.store.salvage_reports == []


class TestTruncationAccounting:
    host = TmHost

    def test_truncate_reports_bytes_reclaimed(self):
        h = self.host()
        h.write([record(ts) for ts in range(1, 11)])
        dropped = h.store.truncate(6)
        assert dropped == 5
        assert h.store.stats.truncated == 5
        assert h.store.stats.truncated_bytes == 5 * 96

    def test_truncate_keeps_frames_aligned(self):
        h = self.host(DiskFaultSettings(lost_fsync_probability=1.0))
        h.write([record(ts) for ts in range(1, 9)])
        h.store.disk.configure_faults(lost_fsync_probability=0.0)
        h.write([record(9)])
        h.store.disk.configure_faults(lost_fsync_probability=1.0)
        h.write([record(10)])
        h.store.truncate(6)
        # The watermark still covers exactly the honestly-synced 6..9.
        assert (h.store.length, h.store.durable_length) == (5, 4)
        h.crash()
        # The surviving records still verify.
        assert [r.commit_ts for r in h.store.fetch(0)] == [6, 7, 8, 9]
        assert h.store.salvage_reports == []

    def test_shard_truncation_reports_bytes(self):
        """A record costs the same bytes whichever host stores it: its
        size estimate travels on the wire to a logger shard."""
        records = [record(ts) for ts in range(1, 6)]
        tm, shard = TmHost(), ShardHost()
        for h in (tm, shard):
            h.write(records)
            assert h.store.truncate(4) == 3
        assert tm.store.stats.truncated_bytes == 3 * 96
        assert tm.store.disk.bytes_written == 5 * 96
        assert shard.node.metrics()["counters"]["truncated_bytes"] == 3 * 96
        assert shard.store.disk.bytes_written == 5 * 96


class TestWriteErrorsOnShard(TestWriteErrors):
    host = ShardHost


class TestLyingFsyncsOnShard(TestLyingFsyncs):
    host = ShardHost


class TestTornTailOnShard(TestTornTail):
    host = ShardHost


class TestCorruptionOnShard(TestCorruption):
    host = ShardHost


class TestTruncationAccountingOnShard(TestTruncationAccounting):
    host = ShardHost
    test_shard_truncation_reports_bytes = None  # already compares both hosts
