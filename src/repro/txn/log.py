"""The transaction manager's recovery log.

Committed write-sets are appended here -- together with the commit
timestamp and the client identifier, exactly the fields the paper's
recovery procedures filter on -- and made durable with **group commit**:
the log device syncs as soon as it is free, and one sync covers every
commit that queued while the previous sync was in flight (Section 4.1:
"the logging sub-component supports group commit [and] has access to its
own high performance stable storage").  There is no timer: a group is
exactly what arrived during the last sync, so its size follows load.

:class:`LogStore` is one host's stable storage for commit records -- the
TM's own device or a logger shard's (:mod:`repro.txn.loggers`) -- and
:func:`group_commit` is the one loop that batches queued appends into
writes, whichever host takes them.  The storage is *not* assumed perfect:
records are framed (:class:`~repro.storage.Record`), the store tracks
which prefix genuinely reached the platter (a lying fsync leaves
acknowledged records volatile until the next genuine sync covers them), a
host crash is a power cut for the rest, and recovery-side reads salvage
rather than trust: the first torn/corrupt record truncates the replayable
suffix, and every such scan surfaces a
:class:`~repro.storage.SalvageReport` so damage is auditable, never
silently replayed.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import DiskSettings, TxnSettings
from repro.kvstore.keys import WireCell
from repro.errors import DiskWriteError
from repro.metrics.spans import tracer_for
from repro.sim.disk import Disk
from repro.sim.events import Event, Interrupt
from repro.sim.kernel import Kernel
from repro.sim.node import Node
from repro.sim.resource import SimQueue
from repro.storage import Record, SalvageReport, StoredFile, salvage_prefix


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
        return LogRecord(**wire)


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


_commit_ts = attrgetter("payload.commit_ts")  # bisect key over framed records

#: Pause before a device write that raised is retried (a transient error
#: left nothing on the medium).
WRITE_RETRY_DELAY = 0.003


class LogStore:
    """One host's stable storage for commit records: checksummed,
    ascending by commit timestamp, truncatable, salvageable."""

    def __init__(
        self,
        kernel: Kernel,
        name: str,
        disk_settings: DiskSettings,
        ordered: bool = False,
    ) -> None:
        self.disk = Disk(
            kernel,
            name=name,
            sync_latency=disk_settings.sync_latency,
            bytes_per_second=disk_settings.bytes_per_second,
            faults=disk_settings.faults,
        )
        #: An ordered store (the single TM's) takes appends in oracle
        #: order and rejects anything else.  TM *shards* and logger shards
        #: hold a slice of the stream: decision fan-out and a batcher's
        #: retry deliver timestamps out of order and more than once, so
        #: they insert in place and drop repeats.
        self.ordered = ordered
        #: Framed :class:`LogRecord` s ascending by commit_ts; records
        #: [0, ``file.synced``) are genuinely on the platter, the rest
        #: were acknowledged off a lying fsync and are still volatile.
        self.file = StoredFile(path=name)
        #: Everything below this timestamp has been discarded.
        self.truncated_below = 0
        self._damaged = False
        self.salvage_reports: List[SalvageReport] = []
        self.stats = LogStats()
        self._tracer = tracer_for(kernel)

    def write(self, records: Sequence[LogRecord], nbytes: int):
        """Generator: one device sync of ``nbytes`` covering ``records``
        (a ``log.group_sync`` span).

        Raises :class:`~repro.errors.DiskWriteError` with nothing stored
        (the caller retries the same write); a lying fsync stores the
        records but leaves the durable watermark where it was.
        """
        span = self._tracer.begin("log.group_sync", batch=len(records), nbytes=nbytes)
        try:
            durable = yield from self.disk.sync_write(nbytes)
        except DiskWriteError:
            span.end(outcome="write_error")
            raise
        span.end()
        self.stats.syncs += 1
        self.stats.group_sizes.append(len(records))
        for record in records:
            self._store(record)
        if durable:
            # A genuine sync covers everything buffered so far, including
            # records an earlier lying fsync claimed.
            self.file.synced = len(self.file.records)

    def _store(self, record: LogRecord) -> None:
        stored = self.file.records
        idx = len(stored)
        if idx and record.commit_ts <= stored[-1].payload.commit_ts:
            if self.ordered:
                # Commit timestamps are assigned by a single oracle and
                # appended in assignment order; anything else is a bug.
                raise ValueError(
                    f"log append out of order: {record.commit_ts} after "
                    f"{stored[-1].payload.commit_ts}"
                )
            idx = bisect.bisect_left(stored, record.commit_ts, key=_commit_ts)
            if stored[idx].payload.commit_ts == record.commit_ts:
                return  # duplicate delivery
            if idx < self.file.synced:
                # Slid in under the durable watermark; keep the watermark
                # covering the same genuinely-synced records.
                self.file.synced += 1
        framed = Record.framed(record, record.nbytes)
        if self.disk.corrupts_record():
            framed.damage()
            self._damaged = True
        stored.insert(idx, framed)
        self.stats.appended += 1

    def power_cut(self) -> None:
        """The host crashed (:meth:`~repro.storage.StoredFile.power_cut`);
        a torn tail is left for the next :meth:`verify` to cut off."""
        self.stats.lost_unsynced += self.file.power_cut(self.disk)
        if self.file.records and self.file.records[-1].torn:
            self._damaged = True

    def verify(self) -> None:
        """Salvage if a tear or rot may be on the medium: before a fetch,
        so a damaged record is never handed to replay, and before a
        revived host stores anything behind a torn tail."""
        if self._damaged:
            self.salvage()

    def salvage(self) -> SalvageReport:
        """Verify every retained record and truncate at the first bad one
        (:func:`~repro.storage.salvage_prefix`); a report that is not
        clean is retained for audit."""
        stored = self.file.records
        kept, report = salvage_prefix(
            self.disk.name, [(r.payload, r.nbytes, r.state) for r in stored]
        )
        del stored[len(kept) :]
        self.file.synced = min(self.file.synced, len(kept))
        self._damaged = False
        if not report.clean:
            self.salvage_reports.append(report)
        return report

    def fetch(self, after_ts: int, client_id: Optional[str] = None) -> List[LogRecord]:
        """Verified records with commit_ts > after_ts, optionally one
        client's: the ``fetchlogs`` interface Algorithms 2 and 4 call."""
        self.verify()
        stored = self.file.records
        idx = bisect.bisect_right(stored, after_ts, key=_commit_ts)
        records = [framed.payload for framed in stored[idx:]]
        if client_id is not None:
            records = [r for r in records if r.client_id == client_id]
        return records

    def truncate(self, up_to_ts: int) -> int:
        """Drop records with commit_ts < up_to_ts; returns how many.

        Safe exactly when ``up_to_ts`` <= the global persisted threshold
        T_P (Section 3.2: such transactions are durable in the store).
        """
        stored = self.file.records
        idx = bisect.bisect_left(stored, up_to_ts, key=_commit_ts)
        if idx <= 0:
            return 0
        self.stats.truncated += idx
        self.stats.truncated_bytes += sum(framed.nbytes for framed in stored[:idx])
        del stored[:idx]
        self.file.synced = max(0, self.file.synced - idx)
        self.truncated_below = max(self.truncated_below, up_to_ts)
        return idx

    def headline(self) -> dict:
        """The headline statistics (one host's share of ``stats_gen``)."""
        return {
            "length": self.length,
            "appended": self.stats.appended,
            "syncs": self.stats.syncs,
            "truncated": self.stats.truncated,
            "truncated_bytes": self.stats.truncated_bytes,
        }

    @property
    def length(self) -> int:
        """Records currently retained."""
        return len(self.file.records)

    @property
    def durable_length(self) -> int:
        """Retained records genuinely on the platter (tracked watermark)."""
        return self.file.synced

    @property
    def last_ts(self) -> int:
        """The newest retained commit timestamp (truncation floor if none)."""
        stored = self.file.records
        return stored[-1].payload.commit_ts if stored else self.truncated_below


def group_commit(
    queue: SimQueue,
    settings: TxnSettings,
    write_chunk: Callable[[List[LogRecord], int], object],
):
    """The group committer, one process per queue of ``(record, done)``:
    wait for an append, drain everything else queued -- what arrived
    while the previous write was on the device -- and hand it,
    ``group_commit_max`` at a time, to ``write_chunk(records, nbytes)``, a
    generator that returns once the records are durable (retrying as its
    medium requires); then wake that chunk's waiters."""
    try:
        while True:
            first = yield queue.get()
            batch = [first] + queue.drain()
            while batch:
                chunk = batch[: settings.group_commit_max]
                batch = batch[settings.group_commit_max :]
                records = [record for record, _done in chunk]
                yield from write_chunk(records, sum(r.nbytes for r in records))
                for record, done in chunk:
                    if not done.triggered:
                        done.succeed(record.commit_ts)
    except Interrupt:
        return


class RecoveryLog:
    """The TM-hosted commit log: a local :class:`LogStore` behind the
    group committer."""

    def __init__(
        self,
        host: Node,
        settings: Optional[TxnSettings] = None,
        ordered: bool = True,
    ) -> None:
        self.host = host
        self.settings = settings or TxnSettings()
        self.store = LogStore(
            host.kernel, f"{host.addr}-log", self.settings.log_disk, ordered
        )
        self.stats = self.store.stats
        self._pending: SimQueue = SimQueue(host.kernel)
        host.crash_hooks.append(self.on_host_crash)
        self.restart()

    def append(self, record: LogRecord) -> Event:
        """Queue a commit record; the event fires once it is durable."""
        done = Event(self.host.kernel)
        self._pending.put((record, done))
        return done

    def _retrying(self, attempt: Callable[[], object]):
        """Run ``attempt()``, a generator making one device write, until
        it lands: a transient device error left nothing on the medium, so
        the same write is retried after a beat.  Commit latency absorbs
        the stall -- the waiters simply hear late."""
        while True:
            try:
                yield from attempt()
                return
            except DiskWriteError:
                yield self.host.sleep(WRITE_RETRY_DELAY)

    def _write_chunk(self, records: List[LogRecord], nbytes: int):
        yield from self._retrying(lambda: self.store.write(records, nbytes))

    def force(self, nbytes: int):
        """Generator: sync ``nbytes`` to the log device outside the group
        committer (a prepare or a decision the TM journals itself), under
        the committer's write-error policy."""
        yield from self._retrying(lambda: self.store.disk.sync_write(nbytes))

    def restart(self) -> None:
        """Start the committer: at construction, and after the host node
        revived -- then over the salvaged, durable prefix.

        Queued-but-unsynced appends were already dropped at crash time
        (see :meth:`on_host_crash`); anything in the queue *now* was
        enqueued after the revive by a live waiter and must survive.
        """
        self.store.verify()
        self.host.spawn(
            group_commit(self._pending, self.settings, self._write_chunk),
            name="group-commit",
        )

    def on_host_crash(self) -> None:
        """Host crash hook: queued appends die, the store takes the cut."""
        # Queued appends die here, not at restart: their waiters died
        # with this crash, whereas an append enqueued between revive()
        # and the restart call belongs to a live handler and a
        # restart-time drain would orphan its done-event forever.
        self._pending.drain()
        self.store.power_cut()

    # Generator forms of the recovery-side operations, so the TM can treat
    # the local and the distributed logs uniformly.
    def fetch_gen(self, after_ts: int, client_id: Optional[str] = None):
        """Generator form of :meth:`LogStore.fetch`."""
        yield from ()
        return self.store.fetch(after_ts, client_id=client_id)

    def truncate_gen(self, up_to_ts: int):
        """Generator form of :meth:`LogStore.truncate`."""
        yield from ()
        return self.store.truncate(up_to_ts)

    def stats_gen(self):
        """Generator form of :meth:`LogStore.headline`."""
        yield from ()
        return self.store.headline()

    @property
    def truncated_below(self) -> int:
        """Everything below this timestamp has been discarded."""
        return self.store.truncated_below

    @property
    def last_ts(self) -> int:
        """The newest retained commit timestamp (truncation floor if none)."""
        return self.store.last_ts
