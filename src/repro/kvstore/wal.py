"""The region server's write-ahead log.

One log per server, shared by all of its regions (as in HBase).  Appends go
to an in-memory buffer and are made durable in the DFS either synchronously
(the fig2a baseline: every update waits for the replicated-pipeline write)
or asynchronously (the paper's mode: ack immediately, group-sync shortly
after).  The durable prefix is what a failover recovers -- each recipient
of one of the dead server's regions fetches that region's records from
the segments with :func:`fetch_region_records`, the one WAL reader;
buffered entries die with the server -- deliberately, because the
transaction manager's log owns their durability.
"""

from __future__ import annotations

import typing
from typing import Dict, List, Optional, Tuple

from repro.dfs.client import DfsClient
from repro.errors import DfsError
from repro.kvstore.keys import WireCell
from repro.metrics.spans import tracer_for
from repro.sim.events import Event, Interrupt
from repro.sim.resource import Resource
from repro.storage import SegmentHeader, is_segment_header

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.node import Node

#: Wire payload of one WAL record: (region_id, txn_ts, cells).
WalRecord = Tuple[str, int, List[WireCell]]

SYNC = "sync"
ASYNC = "async"


def wal_dir(server_addr: str) -> str:
    """DFS directory holding a server's WAL files."""
    return f"/wal/{server_addr}/"


class WriteAheadLog:
    """Append-only log for one region server."""

    def __init__(
        self,
        host: "Node",
        dfs: DfsClient,
        mode: str = ASYNC,
        sync_interval: float = 0.05,
        per_cell_bytes: int = 64,
        local_datanode: Optional[str] = None,
        roll_records: int = 5000,
        epoch: int = 0,
    ) -> None:
        if mode not in (SYNC, ASYNC):
            raise ValueError(f"unknown WAL mode {mode!r}")
        self.host = host
        self.dfs = dfs
        self.mode = mode
        self.sync_interval = sync_interval
        self.per_cell_bytes = per_cell_bytes
        self.local_datanode = local_datanode
        #: Records per segment before the log rolls to a fresh file.  A
        #: closed segment is immutable, which lets the DFS re-replicate it
        #: after datanode failures (as HBase's periodic WAL rolls do).
        self.roll_records = roll_records
        #: Server incarnation: a restarted server gets a fresh epoch so its
        #: new segments never collide with the previous life's files.
        self.epoch = epoch
        #: Durability floor for syncs: T_P must never advance past records
        #: that are 'durable' on a single (usually co-located) replica --
        #: lose that machine and server recovery would silently skip them.
        self.min_durable = max(1, min(2, dfs.replication))
        self._file_index = 0
        self._file_records = 0
        self.appended_seq = 0
        self.synced_seq = 0
        self._buffer: List[Tuple[WalRecord, int]] = []
        self._sync_lock: Optional[Resource] = None
        self._sync_waiters: Dict[int, List[Event]] = {}
        self.sync_count = 0
        self.rolls = 0

    @property
    def path(self) -> str:
        """The active WAL segment."""
        return (
            f"{wal_dir(self.host.addr)}"
            f"wal-e{self.epoch:04d}-{self._file_index:06d}.log"
        )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self):
        """Create the DFS file and start the group syncer.  (Generator API.)"""
        self._sync_lock = Resource(self.host.kernel, capacity=1)
        yield from self._start_segment()
        if self.mode == ASYNC:
            self.host.spawn(self._group_syncer(), name="wal-syncer")
        return self

    def _start_segment(self):
        """Create the active segment's file and open it with its identity
        record.  (Generator API.)

        The replica set is scattered -- a seeded-random draw over the live
        datanodes instead of local-first -- so no single backup holds the
        whole log and recovery reads fan out across the cluster (RAMCloud
        style).  The header names the writer, its epoch and the segment
        number, so the recovery fetch can reject a segment spliced from
        the wrong log or a stale incarnation (:func:`fetch_region_records`).
        The header is best-effort and non-durable: it becomes
        durable with the first record sync (the datanode syncs the whole
        unsynced prefix), and the salvage reader tolerates its absence --
        an empty segment with a lost header recovers to nothing, which is
        exactly what it holds.
        """
        yield from self.dfs.create(
            self.path, preferred=self.local_datanode, scatter=True
        )
        header = SegmentHeader(
            writer=self.host.addr, epoch=self.epoch, segment=self._file_index
        )
        try:
            yield from self.dfs.append(
                self.path, [(header.to_wire(), 32)], durable=False,
                max_attempts=2,
            )
        except DfsError:
            pass

    def _group_syncer(self):
        try:
            while True:
                yield self.host.sleep(self.sync_interval)
                if not self._buffer:
                    continue
                try:
                    yield from self.sync()
                except Interrupt:
                    raise
                except Exception:
                    # Pipeline below the durability floor (datanodes dead
                    # or partitioned).  The batch is back in the buffer;
                    # retry next interval -- durability waiters are the
                    # ones with deadlines, not this loop.
                    continue
        except Interrupt:
            return

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------
    def append(self, region_id: str, txn_ts: int, cells: List[WireCell]) -> int:
        """Buffer one record; returns its sequence number immediately."""
        self.appended_seq += 1
        nbytes = max(self.per_cell_bytes * len(cells), 64)
        self._buffer.append(((region_id, txn_ts, list(cells)), nbytes))
        return self.appended_seq

    def sync(self):
        """Durably write all buffered records to the DFS.  (Generator API.)

        Concurrent callers serialise on the log; each flushes whatever has
        accumulated by the time it holds the lock (group commit for free).
        """
        target = self.appended_seq
        grant = self._sync_lock.request()
        try:
            yield grant
        except BaseException:
            self._sync_lock.cancel(grant)
            raise
        try:
            if self.synced_seq >= target and not self._buffer:
                return self.synced_seq
            batch, self._buffer = self._buffer, []
            batch_top = self.synced_seq + len(batch)
            if batch:
                records = [(payload, nbytes) for payload, nbytes in batch]
                span = tracer_for(self.host.kernel).begin(
                    "wal.sync", server=self.host.addr, batch=len(records)
                )
                try:
                    yield from self._append_durable(records)
                except Interrupt:
                    # Crash mid-sync: leave the span open (truncated).
                    self._buffer[0:0] = batch
                    raise
                except BaseException:
                    # Put the batch back so a later sync retries it; losing
                    # it here would leave synced_seq permanently behind
                    # appended_seq with nothing left to write.
                    self._buffer[0:0] = batch
                    span.end(outcome="error")
                    raise
                span.end()
                self.sync_count += 1
                self._file_records += len(records)
            self.synced_seq = batch_top
            self._wake_waiters()
            if self._file_records >= self.roll_records:
                yield from self._roll()
        finally:
            self._sync_lock.release()
        return self.synced_seq

    def _append_durable(self, records):
        """Land ``records`` on at least ``min_durable`` replicas.

        A pipeline degraded below the floor (a replica datanode dead or
        partitioned away) fails fast; the repair is to roll to a fresh
        segment on healthy datanodes and append there -- HBase's answer
        to an HDFS pipeline failure.  Rolling also lets the namenode
        re-replicate the closed, degraded segment in the background.
        """
        try:
            yield from self.dfs.append(
                self.path, records, durable=True,
                max_attempts=2, min_replicas=self.min_durable,
            )
            return
        except DfsError:
            pass
        yield from self._roll()
        yield from self.dfs.append(
            self.path, records, durable=True, min_replicas=self.min_durable,
        )

    def _roll(self):
        """Close the active segment and open a fresh one (holding the lock)."""
        old_path = self.path
        self._file_index += 1
        self._file_records = 0
        self.rolls += 1
        yield from self._start_segment()
        yield from self.dfs.close(old_path)

    def sync_through(self, seq: int):
        """Wait until record ``seq`` is durable, syncing if needed."""
        while self.synced_seq < seq and self.host.alive:
            yield from self.sync()
        return self.synced_seq

    def wait_synced(self, seq: int) -> Event:
        """Event that fires once record ``seq`` is durable."""
        event = Event(self.host.kernel)
        if self.synced_seq >= seq:
            event.succeed(self.synced_seq)
        else:
            self._sync_waiters.setdefault(seq, []).append(event)
        return event

    def _wake_waiters(self) -> None:
        ready = [seq for seq in self._sync_waiters if seq <= self.synced_seq]
        for seq in ready:
            for event in self._sync_waiters.pop(seq):
                if not event.triggered:
                    event.succeed(self.synced_seq)

    # ------------------------------------------------------------------
    # crash / recovery support
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Records appended but not yet durable."""
        return self.appended_seq - self.synced_seq

    def lose_buffer(self) -> None:
        """Crash: buffered (unsynced) records are gone."""
        self._buffer.clear()
        self._sync_waiters.clear()


def fetch_region_records(dfs: DfsClient, path: str, regions: List[str]):
    """Fetch one segment's records for specific regions.  (Generator API.)

    The one WAL reader: the recipient-side fragment fetch of parallel
    recovery, and region open's replay of anything listed under
    ``/recovered/<region>/``.  A region-filtered salvaging read (each
    backup returns -- and charges for -- only the requested regions'
    records), merged across the scattered replicas and truncated at the
    first record no replica holds intact
    (:meth:`DfsClient.read_region_salvaged`).  Segment headers are
    validated and stripped: a segment written by a different server
    (spliced from the wrong log) is rejected outright and nothing of it
    is kept.  Returns ``(payloads, report)`` -- the :data:`WalRecord` list
    in append order plus the salvage report; damaged records are never
    replayed.
    """
    entries, report = yield from dfs.read_region_salvaged(path, regions)
    payloads = []
    for payload, _nbytes in entries:
        if is_segment_header(payload):
            header = SegmentHeader.from_wire(payload)
            if not path.startswith(wal_dir(header.writer)):
                report.reason = "foreign-segment"
                report.kept = 0
                report.dropped = report.total
                return [], report
            continue
        payloads.append(payload)
    return payloads, report
