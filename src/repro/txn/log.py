"""The transaction manager's recovery log.

Committed write-sets are appended here -- together with the commit
timestamp and the client identifier, exactly the fields the paper's
recovery procedures filter on -- and made durable with **group commit**:
the log device syncs at most once per configurable window, covering every
commit that arrived meanwhile (Section 4.1: "the logging sub-component
supports group commit [and] has access to its own high performance stable
storage").

The log's storage is *not* assumed perfect: every record is framed with a
sequence number and a CRC32 at append time, the log tracks which prefix
genuinely reached the platter (a lying fsync leaves acknowledged records
volatile until the next genuine sync covers them), and a host crash
applies power-cut semantics to the un-synced tail -- discarded, or torn
into one half-written record when the device tears.  Recovery-side reads
salvage rather than trust: the first torn/corrupt record truncates the
replayable suffix, and every such scan surfaces a
:class:`~repro.storage.SalvageReport` so damage is auditable, never
silently replayed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import TxnSettings
from repro.kvstore.keys import WireCell
from repro.errors import DiskWriteError
from repro.metrics.spans import tracer_for
from repro.sim.disk import Disk
from repro.sim.events import Event, Interrupt
from repro.sim.node import Node
from repro.sim.resource import SimQueue
from repro.storage import SalvageReport, checksum


@dataclass
class LogRecord:
    """One committed write-set: the whole of it at a lone TM, or one
    shard's slice of it in the sharded TM."""

    commit_ts: int
    client_id: str
    cells_by_table: Dict[str, List[WireCell]]
    nbytes: int = 128

    def to_wire(self) -> dict:
        """Serialise for the fetch-logs and shard-append RPCs."""
        return {
            "commit_ts": self.commit_ts,
            "client_id": self.client_id,
            "cells_by_table": self.cells_by_table,
            "nbytes": self.nbytes,
        }

    @staticmethod
    def from_wire(wire: dict) -> "LogRecord":
        """Inverse of :meth:`to_wire` (a wire dict without a size
        estimate gets the default)."""
        return LogRecord(
            commit_ts=wire["commit_ts"],
            client_id=wire["client_id"],
            cells_by_table=wire["cells_by_table"],
            nbytes=wire.get("nbytes", 128),
        )


@dataclass
class _Frame:
    """On-medium framing for one log record: sequence number + CRC32."""

    seq: int
    crc: int
    torn: bool = False

    def verifies(self, record: LogRecord) -> bool:
        """Whether the stored frame still matches the record."""
        return not self.torn and self.crc == checksum(record.to_wire())


@dataclass
class LogStats:
    """Counters for the ablation benchmarks."""

    appended: int = 0
    syncs: int = 0
    truncated: int = 0
    #: Payload bytes reclaimed by truncation -- what T_P checkpointing
    #: actually buys back from the log device.
    truncated_bytes: int = 0
    #: Acknowledged-but-volatile records lost to a crash (lying fsyncs).
    lost_unsynced: int = 0
    group_sizes: List[int] = field(default_factory=list)

    @property
    def mean_group_size(self) -> float:
        """Average commits amortised per log sync."""
        if not self.group_sizes:
            return 0.0
        return sum(self.group_sizes) / len(self.group_sizes)


class RecoveryLog:
    """Append-only, group-committed, truncatable, checksummed commit log."""

    def __init__(
        self,
        host: Node,
        settings: Optional[TxnSettings] = None,
        ordered: bool = True,
    ) -> None:
        self.host = host
        self.settings = settings or TxnSettings()
        #: Ordered logs (the single TM) enforce strictly ascending commit
        #: timestamps -- appends arrive in oracle order.  TM *shards* store
        #: records for their keyspace slice: cross-shard decision fan-out
        #: can deliver timestamps out of order and more than once, so the
        #: unordered mode bisect-inserts and dedups by commit_ts instead.
        self.ordered = ordered
        disk_cfg = self.settings.log_disk
        self.disk = Disk(
            host.kernel,
            name=f"{host.addr}-log",
            sync_latency=disk_cfg.sync_latency,
            bytes_per_second=disk_cfg.bytes_per_second,
            faults=disk_cfg.faults,
        )
        self._records: List[LogRecord] = []  # durable, ascending commit_ts
        self._timestamps: List[int] = []  # parallel array for bisecting
        self._frames: List[_Frame] = []  # parallel on-medium framing
        self._pending: SimQueue = SimQueue(host.kernel)
        self._truncated_below = 0
        #: Retained records [0, _durable_upto) are genuinely on the
        #: platter; the rest were acknowledged off a lying fsync and are
        #: still volatile (covered by the next genuine sync).
        self._durable_upto = 0
        self._seq = 0
        self._damaged = False
        self.salvage_reports: List[SalvageReport] = []
        self.stats = LogStats()
        host.crash_hooks.append(self.on_host_crash)
        host.spawn(self._group_committer(), name="group-commit")

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def append(self, record: LogRecord) -> Event:
        """Queue a commit record; the event fires once it is durable."""
        done = Event(self.host.kernel)
        self._pending.put((record, done))
        return done

    def _group_committer(self):
        try:
            while True:
                first = yield self._pending.get()
                if self.settings.group_commit_interval > 0:
                    yield self.host.sleep(self.settings.group_commit_interval)
                batch = [first] + self._pending.drain()
                tracer = tracer_for(self.host.kernel)
                while batch:
                    chunk = batch[: self.settings.group_commit_max]
                    nbytes = sum(record.nbytes for record, _done in chunk)
                    sync_span = tracer.begin(
                        "log.group_sync", batch=len(chunk), nbytes=nbytes
                    )
                    try:
                        durable = yield from self.disk.sync_write(nbytes)
                    except DiskWriteError:
                        # Transient device error: nothing landed; retry the
                        # same chunk after a beat.  Commit latency absorbs
                        # the stall -- the waiters' events simply fire late.
                        sync_span.end(outcome="write_error")
                        yield self.host.sleep(
                            self.settings.group_commit_interval or 0.001
                        )
                        continue
                    sync_span.end()
                    batch = batch[self.settings.group_commit_max :]
                    self.stats.syncs += 1
                    self.stats.group_sizes.append(len(chunk))
                    for record, done in chunk:
                        self._store(record)
                        if not done.triggered:
                            done.succeed(record.commit_ts)
                    if durable:
                        # A genuine sync covers everything buffered so far,
                        # including records an earlier lying fsync claimed.
                        self._durable_upto = len(self._records)
        except Interrupt:
            return

    def _store(self, record: LogRecord) -> None:
        if not self.ordered:
            # Shard mode: decision fan-out may repeat deliveries and land
            # timestamps out of order; dedup by commit_ts, bisect-insert.
            idx = bisect.bisect_left(self._timestamps, record.commit_ts)
            if idx < len(self._timestamps) and self._timestamps[idx] == record.commit_ts:
                return
            frame = _Frame(seq=self._seq, crc=checksum(record.to_wire()))
            self._seq += 1
            if self.disk.corrupts_record():
                frame.crc ^= 0x5A5A5A5A
                self._damaged = True
            self._records.insert(idx, record)
            self._timestamps.insert(idx, record.commit_ts)
            self._frames.insert(idx, frame)
            if idx < self._durable_upto:
                # Slid in under the durable watermark; keep the watermark
                # covering the same genuinely-synced records.
                self._durable_upto += 1
            self.stats.appended += 1
            return
        # Commit timestamps are assigned by a single oracle and appended in
        # assignment order, so this stays sorted; assert the invariant.
        if self._timestamps and record.commit_ts <= self._timestamps[-1]:
            raise ValueError(
                f"log append out of order: {record.commit_ts} after "
                f"{self._timestamps[-1]}"
            )
        frame = _Frame(seq=self._seq, crc=checksum(record.to_wire()))
        self._seq += 1
        if self.disk.corrupts_record():
            frame.crc ^= 0x5A5A5A5A
            self._damaged = True
        self._records.append(record)
        self._timestamps.append(record.commit_ts)
        self._frames.append(frame)
        self.stats.appended += 1

    def restart(self) -> None:
        """Bring the log back after its host node revived.

        Queued-but-unsynced appends were already dropped at crash time
        (see :meth:`on_host_crash`); anything in the queue *now* was
        enqueued after the revive by a live waiter and must survive.
        Salvage if the medium is damaged and respawn the committer over
        the durable prefix.
        """
        if self._damaged:
            self.salvage()
        self.host.spawn(self._group_committer(), name="group-commit")

    # ------------------------------------------------------------------
    # crash semantics and salvage
    # ------------------------------------------------------------------
    def on_host_crash(self) -> None:
        """Power-cut semantics for the acknowledged-but-volatile tail.

        Registered as a host crash hook.  Records beyond the genuinely
        durable prefix (acknowledged off lying fsyncs) vanish -- or, when
        the device tears, a prefix of them lands plus one half-written
        record that survives detectably torn.
        """
        # Queued appends die here, not at restart: their waiters died
        # with this crash, whereas an append enqueued between revive()
        # and the restart call belongs to a live handler and a
        # restart-time drain would orphan its done-event forever.
        self._pending.drain()
        tail = len(self._records) - self._durable_upto
        if tail <= 0:
            return
        if self.disk.tears_on_crash():
            keep = self.disk.crash_keep_count(tail)
            torn_at = self._durable_upto + keep
            self._frames[torn_at].torn = True
            self._drop_suffix(torn_at + 1)
            self.stats.lost_unsynced += tail - keep - 1
            self._damaged = True
        else:
            self._drop_suffix(self._durable_upto)
            self.stats.lost_unsynced += tail
        self._durable_upto = len(self._records)

    def _drop_suffix(self, from_index: int) -> None:
        del self._records[from_index:]
        del self._timestamps[from_index:]
        del self._frames[from_index:]

    def salvage(self) -> SalvageReport:
        """Verify every retained record; truncate at the first bad one.

        The standard log-recovery scan: frames are checked in sequence
        order and the suffix from the first torn/corrupt record is not
        replayable (everything past a tear is unordered garbage).  The
        report is retained for audit and the log returns to a verified
        state.
        """
        report = SalvageReport(
            path=f"{self.host.addr}-log", total=len(self._records)
        )
        cut: Optional[int] = None
        for index, (record, frame) in enumerate(zip(self._records, self._frames)):
            if frame.verifies(record):
                continue
            cut = index
            report.reason = "torn-record" if frame.torn else "corrupt-record"
            break
        if cut is not None:
            for record, frame in zip(self._records[cut:], self._frames[cut:]):
                report.bytes_truncated += record.nbytes
                if frame.torn:
                    report.torn += 1
                elif not frame.verifies(record):
                    report.corrupt += 1
            self._drop_suffix(cut)
            self._durable_upto = min(self._durable_upto, len(self._records))
        report.kept = len(self._records)
        report.dropped = report.total - report.kept
        self._damaged = False
        if not report.clean:
            self.salvage_reports.append(report)
        return report

    # ------------------------------------------------------------------
    # recovery-side reads
    # ------------------------------------------------------------------
    def fetch(self, after_ts: int, client_id: Optional[str] = None) -> List[LogRecord]:
        """Durable records with commit_ts > after_ts, optionally one client's.

        This is the ``fetchlogs`` interface Algorithms 2 and 4 call.  The
        log is salvaged first if any damage is suspected, so a damaged
        record is never handed to replay.
        """
        if self._damaged:
            self.salvage()
        idx = bisect.bisect_right(self._timestamps, after_ts)
        records = self._records[idx:]
        if client_id is not None:
            records = [r for r in records if r.client_id == client_id]
        return records

    def truncate(self, up_to_ts: int) -> int:
        """Drop records with commit_ts < up_to_ts; returns how many.

        Safe exactly when ``up_to_ts`` <= the global persisted threshold
        T_P (Section 3.2: such transactions are durable in the store).
        """
        idx = bisect.bisect_left(self._timestamps, up_to_ts)
        if idx <= 0:
            return 0
        reclaimed = sum(record.nbytes for record in self._records[:idx])
        del self._records[:idx]
        del self._timestamps[:idx]
        del self._frames[:idx]
        self._durable_upto = max(0, self._durable_upto - idx)
        self._truncated_below = max(self._truncated_below, up_to_ts)
        self.stats.truncated += idx
        self.stats.truncated_bytes += reclaimed
        return idx

    # Generator-form wrappers so the TM can treat the local and the
    # distributed (sharded) logs uniformly.
    def fetch_gen(self, after_ts: int, client_id: Optional[str] = None):
        """Generator form of :meth:`fetch`."""
        yield from ()
        return self.fetch(after_ts, client_id=client_id)

    def truncate_gen(self, up_to_ts: int):
        """Generator form of :meth:`truncate`."""
        yield from ()
        return self.truncate(up_to_ts)

    def stats_gen(self):
        """Generator form of the headline statistics."""
        yield from ()
        return {
            "length": self.length,
            "appended": self.stats.appended,
            "syncs": self.stats.syncs,
            "truncated": self.stats.truncated,
            "truncated_bytes": self.stats.truncated_bytes,
        }

    @property
    def length(self) -> int:
        """Durable records currently retained."""
        return len(self._records)

    @property
    def durable_length(self) -> int:
        """Retained records genuinely on the platter (tracked watermark)."""
        return self._durable_upto

    @property
    def truncated_below(self) -> int:
        """Everything below this timestamp has been discarded."""
        return self._truncated_below

    @property
    def last_ts(self) -> int:
        """The newest retained commit timestamp (truncation floor if none)."""
        return self._timestamps[-1] if self._timestamps else self._truncated_below
