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
writes, whichever host takes them.  :class:`RecoveryLog` is the TM's one
facade over its member stores: its own store, the *zero-hop* member, or
one :class:`RemoteStore` per logger shard when the log is striped over
them ("can be distributed across several nodes should one logging node
not be sufficient").  The storage is *not* assumed perfect:
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
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import DiskSettings, TxnSettings
from repro.kvstore.keys import WireCell
from repro.errors import DiskWriteError
from repro.metrics.registry import MetricsRegistry
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


def mirror_log_position(registry: MetricsRegistry, log, prefix: str = "") -> None:
    """Mirror a log's position into ``registry``, each name under
    ``prefix``: the ``appended`` counter and the ``length`` (records
    retained) and ``truncated_below`` gauges.  ``log`` is a logger
    shard's :class:`LogStore` or a TM's :class:`RecoveryLog`."""
    registry.counter(prefix + "appended").set(log.stats.appended)
    registry.gauge(prefix + "length").set(log.length)
    registry.gauge(prefix + "truncated_below").set(log.truncated_below)


_commit_ts = attrgetter("payload.commit_ts")  # bisect key over framed records
_ts = attrgetter("commit_ts")  # merge key over members' records


class LogStore:
    """One host's stable storage for commit records: checksummed,
    ascending by commit timestamp, truncatable, salvageable."""

    #: A write that raised one of these stored nothing (a transient device
    #: error): a RecoveryLog retries it after ``retry_delay`` seconds.
    write_errors = DiskWriteError
    retry_delay = 0.003

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

    # Generator forms for a RecoveryLog's fan-out: a zero-hop read never waits.
    def fetch_gen(self, after_ts: int, client_id: Optional[str] = None):
        """Generator form of :meth:`fetch`."""
        yield from ()
        return self.fetch(after_ts, client_id)

    def truncate_gen(self, up_to_ts: int):
        """Generator form of :meth:`truncate`."""
        yield from ()
        return self.truncate(up_to_ts)

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
    medium requires); then wake that chunk's waiters.

    An append to an idle committer resumes it inside the appender's
    ``put``, so that record's write starts at the append instant with no
    kernel event between.  The waiters' ``done`` events and the re-``get``
    of appends that queued during a write stay queued: either in place
    moves a schedule (docs/SIMULATION.md, "What stays queued on
    purpose")."""
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


class RemoteStore:
    """A remote member: a logger shard's :class:`LogStore`, reached over
    RPC, with the zero-hop store's member interface.  A failed
    ``shard_append`` (lost, or refused by the shard's device) is retried;
    the shard drops repeats by timestamp."""

    write_errors = Exception
    retry_delay = 0.05

    def __init__(self, host: Node, addr: str, stats: LogStats) -> None:
        self.host = host
        self.addr = addr
        #: The acknowledged appends, tallied into the log's one LogStats.
        self.stats = stats
        # The retained range's two ends, kept with the host's other stable
        # metadata.
        #: The newest commit timestamp known durable on the shard -- one it
        #: acknowledged or a fetch returned (truncation floor if none).
        self.last_ts = 0
        #: Everything below this timestamp has been discarded.
        self.truncated_below = 0

    def _call(self, method: str, **payload) -> Event:
        return self.host.call(self.addr, method, timeout=10.0, **payload)

    def write(self, records: Sequence[LogRecord], nbytes: int):
        """Generator: one ``shard_append`` (a ``log.shard_append`` span)."""
        span = tracer_for(self.host.kernel).begin(
            "log.shard_append", shard=self.addr, batch=len(records)
        )
        try:
            yield self._call(
                "shard_append", size=nbytes, records=[r.to_wire() for r in records]
            )
        except Exception:
            span.end(outcome="write_error")
            raise
        span.end()
        self.stats.group_sizes.append(len(records))
        self.stats.appended += len(records)
        self.last_ts = max(self.last_ts, *(r.commit_ts for r in records))

    def fetch_gen(self, after_ts: int, client_id: Optional[str] = None):
        """The shard's records with commit_ts > after_ts (optionally one
        client's)."""
        wire = yield self._call("shard_fetch", after_ts=after_ts, client_id=client_id)
        records = [LogRecord.from_wire(w) for w in wire]
        if records:
            # The shard may hold an append whose acknowledgement died with
            # the previous incarnation of the host.
            self.last_ts = max(self.last_ts, records[-1].commit_ts)
        return records

    def truncate_gen(self, up_to_ts: int):
        """Drop the shard's records with commit_ts < up_to_ts."""
        dropped = yield self._call("shard_truncate", up_to_ts=up_to_ts)
        self.stats.truncated += dropped
        self.truncated_below = max(self.truncated_below, up_to_ts)
        self.last_ts = max(self.last_ts, up_to_ts)
        return dropped


class RecoveryLog:
    """A TM's commit log: member stores, each behind its own group
    committer -- the host's own :class:`LogStore` (the *zero-hop* member)
    or, with ``logger_shards``, one :class:`RemoteStore` per shard,
    striped by ``commit_ts % k``."""

    def __init__(
        self,
        host: Node,
        settings: Optional[TxnSettings] = None,
        ordered: bool = True,
        logger_shards: Sequence[str] = (),
    ) -> None:
        self.host = host
        self.settings = settings or TxnSettings()
        if logger_shards:
            #: The zero-hop member (None when the log is on logger shards).
            self.store: Optional[LogStore] = None
            self.stats = LogStats()
            self.members = [RemoteStore(host, a, self.stats) for a in logger_shards]
        else:
            self.store = LogStore(
                host.kernel, f"{host.addr}-log", self.settings.log_disk, ordered
            )
            self.stats = self.store.stats
            self.members = [self.store]
        self._queues = [SimQueue(host.kernel) for _member in self.members]
        host.crash_hooks.append(self.on_host_crash)
        self.restart()

    def append(self, record: LogRecord) -> Event:
        """Queue a commit record on its member; the event fires once durable.

        An idle committer starts the record's write before this returns.
        """
        done = Event(self.host.kernel)
        self._queues[record.commit_ts % len(self._queues)].put((record, done))
        return done

    def _retrying(self, member, write: Callable[..., object], *args):
        """Run ``write(*args)``, a generator making one write to
        ``member``, until it lands: a write that raised one of the
        member's ``write_errors`` left nothing durable, so the same write
        is retried after its ``retry_delay``.  Commit latency absorbs the
        stall -- the waiters simply hear late."""
        while True:
            try:
                yield from write(*args)
                return
            except member.write_errors:
                yield self.host.sleep(member.retry_delay)

    def force(self, nbytes: int):
        """Generator: sync ``nbytes`` to the zero-hop member's device
        outside the group committer (a prepare or a decision the TM
        journals itself), under the committer's write-error policy.  A log
        on logger shards has no zero-hop member to force."""
        yield from self._retrying(self.store, self.store.disk.sync_write, nbytes)

    def restart(self) -> None:
        """Start the committers: at construction, and after the host node
        revived -- then over the zero-hop member's salvaged, durable
        prefix (a logger shard salvages its own on revive).

        Queued-but-unsynced appends were already dropped at crash time
        (see :meth:`on_host_crash`); anything in a queue *now* was
        enqueued after the revive by a live waiter and must survive.
        """
        if self.store is not None:
            self.store.verify()
        for member, queue in zip(self.members, self._queues):
            self.host.spawn(
                group_commit(
                    queue, self.settings, partial(self._retrying, member, member.write)
                ),
                name="group-commit",
            )

    def on_host_crash(self) -> None:
        """Host crash hook: queued appends die; power-cut the zero-hop member.

        Only appends queued behind a write in flight are still queued.  The
        write in flight stores nothing on the zero-hop member (its power
        cut); a ``shard_append`` already on the wire may still land on its
        logger shard, and its acknowledgement dies with the host.
        """
        # Queued appends die here, not at restart: their waiters died
        # with this crash, whereas an append enqueued between revive()
        # and the restart call belongs to a live handler and a
        # restart-time drain would orphan its done-event forever.
        for queue in self._queues:
            queue.drain()
        if self.store is not None:
            self.store.power_cut()

    def _fan_out(self, op: str, *args):
        """``op`` forked on every member; the replies in member order.  A
        zero-hop member answers inside its fork (no simulated time, no
        kernel event); remote members' RPCs are all in flight at once."""
        forks = [self.host.fork(getattr(m, op)(*args)) for m in self.members]
        for fork in forks:
            fork.defuse()  # a failure reaches the caller through all_of
        unfinished = [fork for fork in forks if not fork.processed]
        if unfinished:
            yield self.host.kernel.all_of(unfinished)
        return [fork.value for fork in forks]

    def fetch_gen(self, after_ts: int, client_id: Optional[str] = None):
        """Every member's records with commit_ts > after_ts (optionally
        one client's), merged by commit timestamp: the ``fetchlogs``
        interface Algorithms 2 and 4 call."""
        replies = yield from self._fan_out("fetch_gen", after_ts, client_id)
        return sorted((r for records in replies for r in records), key=_ts)

    def truncate_gen(self, up_to_ts: int):
        """Drop every member's records with commit_ts < up_to_ts; returns
        how many."""
        return sum((yield from self._fan_out("truncate_gen", up_to_ts)))

    @property
    def length(self) -> int:
        """Records retained: the zero-hop member's, or on logger shards
        what they acknowledged and have not truncated."""
        if self.store is not None:
            return self.store.length
        return self.stats.appended - self.stats.truncated

    @property
    def truncated_below(self) -> int:
        """Everything below this timestamp has been discarded."""
        return max(member.truncated_below for member in self.members)

    @property
    def last_ts(self) -> int:
        """The newest commit timestamp durable on a member (truncation
        floor if none)."""
        return max(member.last_ts for member in self.members)
