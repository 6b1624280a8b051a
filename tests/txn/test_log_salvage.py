"""Storage-fault behaviour of the TM recovery log: lying fsyncs, torn
tails, latent corruption, salvage, and truncation byte accounting."""

from repro.config import DiskFaultSettings, DiskSettings, TxnSettings
from repro.sim import Kernel, Network, Node
from repro.txn.log import LogRecord, RecoveryLog
from repro.txn.loggers import LoggerShard


def make_log(faults=None, interval=0.002, seed=5):
    k = Kernel(seed=seed)
    net = Network(k)
    host = Node(k, net, "tm")
    settings = TxnSettings(
        group_commit_interval=interval,
        log_disk=DiskSettings(
            sync_latency=0.002, faults=faults or DiskFaultSettings()
        ),
    )
    return k, host, RecoveryLog(host, settings)


def record(ts, client="c1"):
    return LogRecord(
        commit_ts=ts,
        client_id=client,
        cells_by_table={"t": [("r", "f", ts, "v")]},
        nbytes=96,
    )


def append_all(k, log, records):
    events = [log.append(r) for r in records]

    def waiter():
        yield k.all_of(events)

    k.run_until_complete(k.process(waiter()))
    return events


class TestWriteErrors:
    def test_transient_error_is_retried_not_lost(self):
        k, _host, log = make_log(
            faults=DiskFaultSettings(write_error_probability=0.5), seed=3
        )
        append_all(k, log, [record(ts) for ts in range(1, 21)])
        assert log.length == 20
        assert log.disk.write_errors > 0
        # Every ack is backed by a genuinely stored record.
        assert log.fetch(0)[-1].commit_ts == 20


class TestLyingFsyncs:
    def test_durable_watermark_lags_lying_fsyncs(self):
        k, _host, log = make_log(
            faults=DiskFaultSettings(lost_fsync_probability=1.0)
        )
        append_all(k, log, [record(1), record(2)])
        assert log.length == 2
        assert log.durable_length == 0  # every sync lied

    def test_crash_loses_the_volatile_tail(self):
        k, host, log = make_log(
            faults=DiskFaultSettings(lost_fsync_probability=1.0)
        )
        append_all(k, log, [record(1), record(2), record(3)])
        host.crash()
        assert log.length == 0
        assert log.stats.lost_unsynced == 3

    def test_genuine_sync_covers_earlier_lies(self):
        k, host, log = make_log(
            faults=DiskFaultSettings(lost_fsync_probability=1.0)
        )
        append_all(k, log, [record(1), record(2)])
        log.disk.configure_faults(lost_fsync_probability=0.0)
        append_all(k, log, [record(3)])
        assert log.durable_length == 3  # the honest sync covered everything
        host.crash()
        assert log.length == 3
        assert log.stats.lost_unsynced == 0

    def test_crash_without_faults_loses_nothing(self):
        k, host, log = make_log()
        append_all(k, log, [record(1), record(2)])
        host.crash()
        assert log.length == 2


class TestTornTail:
    def test_crash_can_tear_the_last_volatile_record(self):
        k, host, log = make_log(
            faults=DiskFaultSettings(
                lost_fsync_probability=1.0, torn_write_probability=1.0
            )
        )
        append_all(k, log, [record(ts) for ts in range(1, 6)])
        host.crash()
        # A prefix landed plus one torn record.
        assert 1 <= log.length <= 5
        assert log._frames[-1].torn

    def test_fetch_salvages_the_torn_record_away(self):
        k, host, log = make_log(
            faults=DiskFaultSettings(
                lost_fsync_probability=1.0, torn_write_probability=1.0
            )
        )
        append_all(k, log, [record(ts) for ts in range(1, 6)])
        host.crash()
        torn_length = log.length
        records = log.fetch(0)
        # The torn record is never replayed, and the scan is audited.
        assert log.length == torn_length - 1
        assert [r.commit_ts for r in records] == list(
            range(1, torn_length)
        )
        assert len(log.salvage_reports) == 1
        report = log.salvage_reports[0]
        assert report.reason == "torn-record"
        assert report.torn == 1
        assert report.bytes_truncated == 96


class TestCorruption:
    def test_fetch_truncates_at_the_rotted_record(self):
        k, _host, log = make_log(
            faults=DiskFaultSettings(corruption_probability=1.0)
        )
        append_all(k, log, [record(1)])
        log.disk.configure_faults(corruption_probability=0.0)
        append_all(k, log, [record(2)])
        records = log.fetch(0)
        # Record 1 rotted; everything after it is untrusted.
        assert records == []
        assert log.salvage_reports[0].reason == "corrupt-record"
        assert log.salvage_reports[0].corrupt == 1
        assert log.salvage_reports[0].dropped == 2

    def test_clean_log_never_salvages(self):
        k, _host, log = make_log()
        append_all(k, log, [record(1), record(2)])
        assert len(log.fetch(0)) == 2
        assert log.salvage_reports == []


class TestTruncationAccounting:
    def test_truncate_reports_bytes_reclaimed(self):
        k, _host, log = make_log()
        append_all(k, log, [record(ts) for ts in range(1, 11)])
        dropped = log.truncate(6)
        assert dropped == 5
        assert log.stats.truncated == 5
        assert log.stats.truncated_bytes == 5 * 96
        stats = k.run_until_complete(k.process(log.stats_gen()))
        assert stats["truncated_bytes"] == 5 * 96

    def test_truncate_keeps_frames_aligned(self):
        k, _host, log = make_log()
        append_all(k, log, [record(ts) for ts in range(1, 11)])
        log.truncate(6)
        assert len(log._frames) == log.length
        # The surviving records still verify.
        assert [r.commit_ts for r in log.fetch(0)] == [6, 7, 8, 9, 10]
        assert log.salvage_reports == []

    def test_shard_truncation_reports_bytes(self):
        """A record costs the same bytes whichever host stores it: its
        size estimate travels on the wire to a logger shard."""
        k = Kernel(seed=8)
        net = Network(k)
        shard = LoggerShard(k, net, "log0")
        records = [record(ts) for ts in range(1, 6)]

        def go():
            yield from shard.rpc_shard_append(
                "tm", [r.to_wire() for r in records]
            )
            return shard.rpc_shard_truncate("tm", 4)

        dropped = k.run_until_complete(k.process(go()))
        assert dropped == 3
        stats = shard.rpc_shard_stats("tm")
        assert stats["truncated"] == 3
        k2, _host, log = make_log()
        append_all(k2, log, records)
        assert log.truncate(4) == 3
        assert stats["truncated_bytes"] == log.stats.truncated_bytes == 3 * 96
        assert shard.disk.bytes_written == log.disk.bytes_written == 5 * 96
