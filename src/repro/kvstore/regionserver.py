"""The region server.

Serves multi-version reads (memstore, then block-cached sstables, with DFS
reads on cache misses) and transactional write-set fragments (WAL append,
memstore apply, sync or async persistence).  Background work: the WAL group
syncer, and a memstore flusher that rolls full memstores into sstables.

Recovery extensions (Section 3 of the paper) attach through a small hook
surface -- ``extension`` -- so the store itself stays nearly unchanged,
mirroring the paper's "extensions to the key-value store are kept to a
minimum":

* ``on_fragment_applied(region_id, txn_ts, n_cells, wal_seq, piggyback_tp)``
  -- called after a write-set fragment is applied (server-side tracking).
* ``region_gate(region_id, failed_server)`` -- generator awaited between
  HBase-internal region recovery and declaring the region online.
* ``on_server_started()`` -- called once startup completes.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.config import KvSettings
from repro.dfs.client import DfsClient
from repro.errors import DfsError, RegionOffline, RpcError, WrongRegionServer
from repro.kvstore.blockcache import BlockCache
from repro.kvstore.keys import Cell, WireCell
from repro.kvstore.region import (
    OFFLINE,
    ONLINE,
    OPENING,
    RECOVERING,
    Region,
    RegionDescriptor,
)
from repro.kvstore.sstable import SSTable
from repro.kvstore.wal import SYNC, WriteAheadLog, fetch_region_records
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import tracer_for
from repro.sim.events import Interrupt
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.resource import Resource
from repro.sim.retry import RetryPolicy
from repro.zk.client import ZkClient, ZkWatcherMixin

#: ZK directory of live region-server ephemerals.
RS_ZNODE_DIR = "/hbase/rs"

#: Pacing for recovery-source reads (a region's fragments of the scattered
#: WAL segments).  A read that fails because every holder is
#: unreachable -- or that would *provisionally* truncate because a listed
#: replica is dark -- waits for the holder to come back rather than
#: accepting the loss; after the deadline the truncation is accepted and
#: the damage surfaces through the salvage report.
RECOVERY_READ_RETRY = RetryPolicy(
    base_delay=0.5, multiplier=1.5, max_delay=2.0, jitter=0.2,
    max_attempts=None, deadline=30.0,
)

# Block-map representation cached per block: (row, col) -> versions ascending.
BlockMap = Dict[Tuple[str, str], List[Tuple[int, Any]]]


def _block_to_map(cells: List[WireCell]) -> BlockMap:
    out: BlockMap = {}
    get = out.get
    for row, col, version, value in cells:
        key = (row, col)
        versions = get(key)
        if versions is None:
            out[key] = [(version, value)]
        else:
            versions.append((version, value))
    for versions in out.values():
        if len(versions) > 1:
            versions.sort()
    return out


class _FileCursor:
    """One store file's position in a scan.

    ``row`` is the next row the file can contribute (None: none left).  With
    ``items`` set it is exact -- ``column`` / ``versions`` are that row's
    next entry and ``items`` iterates the rest of the block.  With ``items``
    None, block ``block_idx`` has not been read: ``row`` is then the
    block's first key from the file's index, or, for the block the scan
    starts in, the start row as a lower bound.  A block map iterates in
    (row, column) order because store files are written sorted and a row
    never spans blocks, so no second, sorted form of a block is kept.
    """

    __slots__ = ("sstable", "block_idx", "row", "column", "versions", "items")

    def __init__(self, sstable: SSTable, start_row: str) -> None:
        self.sstable = sstable
        self.items: Optional[Iterator[Tuple[Tuple[str, str], list]]] = None
        self.column = self.versions = None
        first = sstable.block_for_row(start_row)
        if first is None:  # the file starts past start_row, or is empty
            self.block_idx = 0
            self.row = sstable.index[0] if sstable.index else None
        else:
            self.block_idx = first
            self.row = start_row

    def enter_block(self, block_map: Optional[BlockMap], start_row: str) -> None:
        """Position on the first entry >= start_row of the block just read
        (None: the file is gone, and the cursor with it)."""
        if block_map is None:
            self.row = None
            return
        self.items = iter(block_map.items())
        for (row, self.column), self.versions in self.items:
            if row >= start_row:
                self.row = row
                return
        self._leave_block()

    def advance(self) -> None:
        """Step to the next entry of the block, or off its end."""
        entry = next(self.items, None)
        if entry is None:
            self._leave_block()
        else:
            (self.row, self.column), self.versions = entry

    def _leave_block(self) -> None:
        # The next block's first key comes from the index; the block itself
        # is read only if the scan gets that far.
        self.items = None
        self.block_idx += 1
        index = self.sstable.index
        self.row = index[self.block_idx] if self.block_idx < len(index) else None


class RegionServer(ZkWatcherMixin, Node):
    """One HBase-like region server node."""

    def __init__(
        self,
        kernel: Kernel,
        net: Network,
        addr: str,
        settings: Optional[KvSettings] = None,
        namenode: str = "namenode",
        master: str = "master",
        zk_addr: str = "zk",
        local_datanode: Optional[str] = None,
        replication: int = 2,
        cache_blocks: int = 4096,
    ) -> None:
        super().__init__(kernel, net, addr)
        self.settings = settings or KvSettings()
        self.master = master
        self.local_datanode = local_datanode
        self.dfs = DfsClient(self, namenode=namenode, replication=replication)
        self.zk = ZkClient(self, zk_addr=zk_addr)
        self.cpu = Resource(kernel, capacity=self.settings.rpc_workers)
        self.cache = BlockCache(cache_blocks)
        self.wal = WriteAheadLog(
            self,
            self.dfs,
            mode=self.settings.wal_sync_mode,
            sync_interval=self.settings.wal_sync_interval,
            local_datanode=local_datanode,
        )
        self.regions: Dict[str, Region] = {}
        self.extension: Optional[Any] = None
        self.started = False
        self._sst_seq = itertools.count()
        # Host-side parse memo for immutable sstable blocks, keyed like the
        # block cache but never cleared by crashes (see _cached_block).
        self._map_memo: Dict[Tuple[str, int], BlockMap] = {}
        self._compacting: set = set()
        self._epoch = 0
        #: Registry behind all server statistics (see ``metrics()``).
        self.registry = MetricsRegistry("regionserver", addr)
        # Hot-path counters, held directly so increments skip the
        # registry lookup.  Read them via ``metrics()["counters"]``.
        (
            self._n_gets,
            self._n_fragments,
            self._n_cells_applied,
            self._n_flushes,
            self._n_compactions,
            self._n_replay_salvages,
        ) = self.registry.counters(
            "gets", "fragments", "cells_applied", "flushes", "compactions",
            "replay_salvages",
        )
        self._tracer = tracer_for(kernel)

    def metrics(self) -> dict:
        """Uniform registry snapshot for this region server."""
        return self.registry.snapshot()

    @property
    def incarnation(self) -> int:
        """Which life of this address is running (bumped on restart)."""
        return self._epoch

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Bring the server up.  (Generator API; run as a process.)

        Opens the WAL, registers the liveness ephemeral, and starts the
        memstore flusher.
        """
        self.zk.on_session_loss = self._fence_on_session_loss
        yield from self.zk.start_session()
        yield from self.wal.open()
        yield from self.zk.create(f"{RS_ZNODE_DIR}/{self.addr}", ephemeral=True)
        self.spawn(self._flusher_loop(), name="memstore-flusher")
        self.started = True
        if self.extension is not None:
            self.extension.on_server_started()
        return self

    def _fence_on_session_loss(self) -> None:
        """Self-fence on coordination-session expiry.

        Our liveness ephemeral is gone, so the master is (or will be)
        recovering our regions onto other servers; continuing to serve
        would split the brain.  HBase region servers abort here, and so
        do we -- the operator restarts us as a fresh incarnation.
        """
        if self.alive and self.started:
            self.crash()

    def on_crash(self) -> None:
        """Volatile state dies: memstores, block cache, WAL buffer."""
        for region in self.regions.values():
            region.memstore.clear()
            region.state = OPENING
        self.regions.clear()
        self.cache.clear()
        self.wal.lose_buffer()
        self.started = False
        self._compacting.clear()

    def restart(self):
        """Bring a crashed server back into the cluster.  (Generator API.)

        Fresh volatile state and a new WAL epoch; the server rejoins with
        no regions (the master assigns work to it on the next failover,
        move, or balance).  Only restart once any recovery for
        the previous incarnation has completed.
        """
        if self.alive:
            return self
        self.revive()
        self._epoch += 1
        self.wal = WriteAheadLog(
            self,
            self.dfs,
            mode=self.settings.wal_sync_mode,
            sync_interval=self.settings.wal_sync_interval,
            local_datanode=self.local_datanode,
            epoch=self._epoch,
        )
        result = yield from self.start()
        return result

    # ------------------------------------------------------------------
    # region assignment
    # ------------------------------------------------------------------
    def rpc_open_region(
        self,
        sender: str,
        descriptor: dict,
        failed_server: Optional[str] = None,
        log_sources: Optional[List[str]] = None,
    ):
        """Open (and if needed recover) a region, then declare it online.

        Sequence per Section 3.2: load sstables, replay the region's lost
        edits (HBase-internal recovery), then -- if a recovery extension
        is attached -- wait for the transactional recovery gate before
        going online.

        The lost edits come back one way, the fan-out read: the master's
        plan hands each recipient the dead server's WAL segment paths
        (``log_sources``), and the recipient fetches *its region's*
        records straight from the scattered backups (a region-filtered
        salvaging read) and replays them here -- no central log
        splitting.  Recipients work in parallel, each reading only its
        partition's bytes.  Files listed under ``/recovered/<region>/``
        are replayed the same way, ahead of ``log_sources``; nothing in
        this codebase writes there.
        """
        desc = RegionDescriptor.from_wire(descriptor)
        existing = self.regions.get(desc.region_id)
        if existing is not None:
            # Duplicate open: the master retried after a lost reply, or
            # the fabric duplicated the request.  The in-flight open is
            # authoritative -- wait for it rather than restarting
            # recovery with a fresh region object.
            while (
                self.regions.get(desc.region_id) is existing
                and existing.state in (OPENING, RECOVERING)
            ):
                yield self.sleep(0.1)
            if self.regions.get(desc.region_id) is existing:
                # Already online here -- but this open may carry a *newer*
                # recovery obligation than the one that brought the region
                # up: the master can pin the region for an earlier
                # incarnation's death after our re-open finished, and only
                # the recovery gate releases that pin.  Replays are
                # idempotent (versioned cells), so replay any log sources
                # this open carries against the live region, run the gate,
                # and re-announce since the master marks a region offline
                # when it starts a failover for it.
                if log_sources:
                    yield from self._replay_log_sources(
                        existing, log_sources, failed_server
                    )
                if self.extension is not None and failed_server is not None:
                    gate_span = self._tracer.begin(
                        "recovery.region_gate",
                        region=desc.region_id, failed_server=failed_server,
                    )
                    yield from self.extension.region_gate(
                        desc.region_id, failed_server
                    )
                    gate_span.end()
                proc = self.spawn(
                    self._announce_online(desc.region_id),
                    name=f"announce:{desc.region_id}",
                )
                proc.defuse()
                return {"region": desc.region_id, "replayed_edits": 0}
            # The earlier open failed and cleaned up after itself; fall
            # through and run the open ourselves.

        region = Region(descriptor=desc, state=OPENING)
        self.regions[desc.region_id] = region
        try:
            # Load the immutable store files for this region.
            paths = yield from self.dfs.list_dir(desc.data_dir())
            for path in paths:
                meta = yield from self.dfs.stat(path)
                if not meta["closed"]:
                    continue  # partial flush abandoned by a crashed server
                sstable = yield from SSTable.open(self.dfs, path)
                region.sstables.append(sstable)

            # HBase-internal recovery: replay this region's lost edits.
            # Replayed edits land only in the memstore, not in this
            # server's WAL, so if this server dies too the next open must
            # fetch them again; versioned cells make re-replay idempotent.
            recovered = yield from self.dfs.list_dir(
                f"/recovered/{desc.region_id}/"
            )
            sources = recovered + (log_sources or [])
            replayed = 0
            if sources:
                replayed = yield from self._replay_log_sources(
                    region, sources, failed_server
                )

            # Transactional recovery gate (the paper's hook).
            if self.extension is not None and failed_server is not None:
                region.state = RECOVERING
                gate_span = self._tracer.begin(
                    "recovery.region_gate",
                    region=desc.region_id, failed_server=failed_server,
                )
                yield from self.extension.region_gate(desc.region_id, failed_server)
                gate_span.end()
        except BaseException:
            # A failed open must not leave a corpse pinned OPENING:
            # retries and duplicates check ``self.regions`` to decide
            # whether an open is still in flight.
            if self.regions.get(desc.region_id) is region:
                self.regions.pop(desc.region_id)
            raise

        region.state = ONLINE
        proc = self.spawn(
            self._announce_online(desc.region_id),
            name=f"announce:{desc.region_id}",
        )
        proc.defuse()
        return {"region": desc.region_id, "replayed_edits": replayed}

    def _announce_online(self, region_id: str):
        """Tell the master the region is serving -- reliably.

        A lost fire-and-forget notification would leave the region online
        here but permanently invisible to the master's routing and health
        view, so repeat until acknowledged.
        """
        while self.alive:
            try:
                yield self.call(
                    self.master, "region_online", timeout=2.0,
                    region=region_id, server=self.addr,
                )
                return
            except Interrupt:
                return
            except RpcError:
                yield self.sleep(0.5)

    def _read_patiently(self, make_read):
        """Run a salvaging read, waiting out dark holders.  (Generator API.)

        ``make_read`` builds a fresh read generator per attempt (a
        salvaging read returning ``(records, report)``).  Two outcomes make
        us wait and retry under :data:`RECOVERY_READ_RETRY` instead of
        proceeding: no reachable holder at all (:class:`DfsError`), and a
        *provisional* truncation -- records dropped while a listed replica
        was unreachable, meaning a backup that comes back with its disk
        intact may still hold them whole.  Recovery sources carry acked
        commits, so accepting such a truncation early would silently lose
        data a revived backup could have served.
        """
        start = self.kernel.now
        attempt = 0
        while True:
            attempt += 1
            try:
                records, report = yield from make_read()
            except DfsError:
                if RECOVERY_READ_RETRY.gives_up(attempt, self.kernel.now - start):
                    raise
                yield self.sleep(
                    RECOVERY_READ_RETRY.backoff(attempt, self.retry_rng)
                )
                continue
            if report.dropped and report.replicas_missing:
                if RECOVERY_READ_RETRY.gives_up(attempt, self.kernel.now - start):
                    return records, report  # deadline: accept, damage reported
                yield self.sleep(
                    RECOVERY_READ_RETRY.backoff(attempt, self.retry_rng)
                )
                continue
            return records, report

    def _replay_log_sources(
        self,
        region: Region,
        log_sources: List[str],
        failed_server: Optional[str],
    ):
        """Fetch and replay one recovery partition's log fragments.

        (Generator API; returns the number of cells replayed.)  Each
        segment is read through the region-filtered salvage path -- the
        scattered backups return only this region's records -- and applied
        to the memstore with a CPU charge proportional to the cells
        applied, so replay work genuinely spreads across recipients.
        Versioned cells make duplicate replay (master retries, repeated
        failovers) idempotent.
        """
        span = self._tracer.begin(
            "recovery.fragment_replay",
            region=region.region_id,
            failed_server=failed_server,
            segments=len(log_sources),
        )
        replayed = 0
        try:
            for path in log_sources:
                records, salvage = yield from self._read_patiently(
                    lambda p=path: fetch_region_records(
                        self.dfs, p, [region.region_id]
                    )
                )
                if not salvage.clean:
                    self._n_replay_salvages.inc()
                cells_in_segment = 0
                for payload in records:
                    _region_id, txn_ts, cells = payload
                    for wire in cells:
                        region.memstore.put(Cell.from_wire(wire))
                    cells_in_segment += len(cells)
                if cells_in_segment:
                    yield from self.cpu.use(
                        self.settings.op_service_time * cells_in_segment * 0.5
                    )
                replayed += cells_in_segment
        except Interrupt:
            raise  # crash mid-replay: leave the span open (truncated)
        except BaseException:
            span.end(outcome="error", cells=replayed)
            raise
        span.end(cells=replayed)
        return replayed

    def rpc_close_region(self, sender: str, region_id: str):
        """Cleanly close a region for a move (not a failure path).

        New operations are rejected as soon as closing starts; the memstore
        is flushed to a store file so the receiving server needs no log
        replay; then the region is dropped.
        """
        region = self._require_region(region_id)
        region.state = OFFLINE  # reads and writes now bounce with retries
        while region.memstore.flushing:
            yield self.sleep(0.05)  # an in-flight background flush finishes
        if region.memstore.total_entries() > 0:
            yield from self._flush_region(region)
        self.regions.pop(region_id, None)
        return {"region": region_id, "sstables": len(region.sstables)}

    def _require_region(self, region_id: str) -> Region:
        region = self.regions.get(region_id)
        if region is None:
            raise WrongRegionServer(region_id, self.addr)
        return region

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def rpc_get(
        self, sender: str, region_id: str, row: str, column: str, max_version: int
    ):
        """Multi-version read: newest (version, value) <= max_version.

        The client routes by region id (tables may have overlapping row
        keyspaces, so a bare row is ambiguous on a server hosting several
        tables' regions).
        """
        region = self._require_region(region_id)
        if not region.online:
            raise RegionOffline(region.region_id)
        if not region.contains(row):
            raise WrongRegionServer(f"row {row!r}", self.addr)
        yield from self.cpu.use(self.settings.op_service_time)
        self._n_gets.inc()

        best: Optional[Tuple[int, Any]] = None
        hit = region.memstore.get(row, column, max_version)
        if hit is not None:
            version, value, tombstone = hit
            best = (version, None if tombstone else value)

        for sstable in list(region.sstables):
            block_idx = sstable.block_for_row(row)
            if block_idx is None:
                continue
            block_map = yield from self._cached_block(region, sstable, block_idx)
            if block_map is None:
                continue  # the file is gone; the sstable was dropped
            versions = block_map.get((row, column))
            if versions:
                candidate = self._best_version(versions, max_version)
                if candidate is not None and (best is None or candidate[0] > best[0]):
                    best = candidate
        return best

    def _cached_block(self, region: Region, sstable: SSTable, block_idx: int):
        """Fetch one block through the cache.  (Generator API.)

        Returns None -- and drops the sstable from the region -- when the
        underlying file no longer exists (e.g. a compaction deleted its
        inputs while this read was in flight); its data lives on in the
        compacted file that the region references instead.
        """
        key = (sstable.path, block_idx)
        block_map = self.cache.get(key)
        if block_map is not None:
            return block_map
        try:
            cells = yield from sstable.read_block(self.dfs, block_idx)
        except Interrupt:
            raise
        except Exception as exc:
            if "FileNotFound" in repr(exc):
                try:
                    region.sstables.remove(sstable)
                except ValueError:
                    pass
                self.cache.invalidate_file(sstable.path)
                return None
            raise
        yield from self.cpu.use(self.settings.cache_miss_penalty)
        # The simulated miss penalty above is charged on every cache miss;
        # the Python-side parse below is memoised separately because sstable
        # blocks are immutable -- re-missing the same block (cache wiped by
        # a crash) must pay the simulated cost again, but not the host cost.
        block_map = self._map_memo.get(key)
        if block_map is None:
            if len(self._map_memo) > 8192:
                self._map_memo.clear()
            block_map = self._map_memo[key] = _block_to_map(cells)
        self.cache.put(key, block_map)
        return block_map

    @staticmethod
    def _best_version(
        versions: List[Tuple[int, Any]], max_version: int
    ) -> Optional[Tuple[int, Any]]:
        best = None
        for version, value in versions:
            if version > max_version:
                break
            best = (version, value)
        return best

    def rpc_scan(
        self,
        sender: str,
        region_id: str,
        start_row: str,
        end_row: Optional[str],
        max_version: int,
        limit: int = 1000,
    ):
        """Range scan within one region: newest version <= max_version per
        (row, column), rows ascending, at most ``limit`` rows.

        Returns ``{"cells": [(row, col, version, value)], "more": bool}``.
        Only a row with a live cell counts: ``more`` says that a live row
        past the ``limit``-th exists, and the caller continues from the
        last row returned.

        An ascending merge of the memstore and one cursor per store file,
        stopped at the limit, so the work -- and on a cold cache the blocks
        read -- follows the rows examined, not the size of the region.  Rows
        with nothing live (deleted, or newer than the snapshot) are examined
        without counting toward the limit, so a run of them is read through.
        """
        region = self.regions.get(region_id)
        if region is None:
            raise WrongRegionServer(region_id, self.addr)
        if not region.online:
            raise RegionOffline(region_id)
        yield from self.cpu.use(self.settings.op_service_time)

        # Both sides are taken here, before the first suspension: the
        # memstore scan holds the maps of its first step and store files are
        # immutable, so a flush that completes while a block fetch is parked
        # moves nothing out of view.
        mem = region.memstore.scan(start_row, end_row, max_version)
        mem_next = next(mem, None)
        cursors = [_FileCursor(sstable, start_row) for sstable in region.sstables]

        out: List[WireCell] = []
        n_rows = 0
        more = False
        while True:
            row = None if mem_next is None else mem_next[0]
            for cursor in cursors:
                if cursor.row is not None and (row is None or cursor.row < row):
                    row = cursor.row
            if row is None or (end_row is not None and row >= end_row):
                break
            # Newest version wins: memstore first, then the store files in
            # region order, a later source only with a strictly newer one.
            columns: Dict[str, Tuple[int, Any]] = {}
            if mem_next is not None and mem_next[0] == row:
                for column, (version, value, tombstone) in mem_next[1].items():
                    columns[column] = (version, None if tombstone else value)
                mem_next = next(mem, None)
            for cursor in cursors:
                while cursor.row == row:
                    if cursor.items is None:
                        # Only now is the block read.  It may turn out to
                        # hold nothing at ``row`` (the block the scan starts
                        # in); the next pass then picks the true smallest.
                        block_map = yield from self._cached_block(
                            region, cursor.sstable, cursor.block_idx
                        )
                        cursor.enter_block(block_map, start_row)
                        continue
                    column = cursor.column
                    candidate = self._best_version(cursor.versions, max_version)
                    if candidate is not None and (
                        column not in columns or candidate[0] > columns[column][0]
                    ):
                        columns[column] = candidate
                    cursor.advance()

            live = [
                (row, column, version, value)
                for column, (version, value) in sorted(columns.items())
                if value is not None
            ]
            if live:
                if n_rows == limit:
                    more = True
                    break
                n_rows += 1
                out.extend(live)
        return {"cells": out, "more": more}

    # ------------------------------------------------------------------
    # transactional writes
    # ------------------------------------------------------------------
    def rpc_txn_flush(
        self,
        sender: str,
        region_id: str,
        txn_ts: int,
        cells: List[WireCell],
        piggyback_tp: Optional[int] = None,
        from_recovery: bool = False,
    ):
        """Apply one write-set fragment (all cells fall in ``region_id``).

        WAL-append first, then memstore.  In sync mode the reply waits for
        the WAL to be durable in the DFS; in async mode (the paper's) the
        reply is immediate and the group syncer persists shortly after.
        ``piggyback_tp`` carries the failed server's persisted threshold on
        recovery replays (Section 3.2, responsibility inheritance).
        """
        region = self._require_region(region_id)
        if not region.accepts_writes(from_recovery):
            raise RegionOffline(region_id)
        if any(not region.contains(wire[0]) for wire in cells):
            # Malformed input: region boundaries are fixed at create_table,
            # so a client grouping by the region map never sends this.
            # Reject the whole fragment; the client re-groups and retries.
            raise WrongRegionServer(region_id, self.addr)
        span = self._tracer.begin("rs.apply", region=region_id, ts=txn_ts)
        yield from self.cpu.use(
            self.settings.op_service_time * max(1, len(cells)) * 0.5
        )
        seq = self.wal.append(region_id, txn_ts, cells)
        for wire in cells:
            region.memstore.put(Cell.from_wire(wire))
        self._n_fragments.inc()
        self._n_cells_applied.inc(len(cells))

        if self.wal.mode == SYNC:
            yield from self.wal.sync_through(seq)
        span.end()

        if self.extension is not None:
            self.extension.on_fragment_applied(
                region_id, txn_ts, len(cells), seq, piggyback_tp
            )
        return {"region": region_id, "seq": seq}

    # ------------------------------------------------------------------
    # memstore flushing
    # ------------------------------------------------------------------
    def _flusher_loop(self):
        try:
            while True:
                yield self.sleep(0.5)
                for region in list(self.regions.values()):
                    if (
                        region.online
                        and not region.memstore.flushing
                        and region.memstore.entries >= self.settings.memstore_flush_entries
                    ):
                        yield from self._flush_region(region)
                    if (
                        region.online
                        and len(region.sstables) > self.settings.compaction_threshold
                        and region.region_id not in self._compacting
                    ):
                        self._compacting.add(region.region_id)
                        proc = self.spawn(
                            self._compact_region(region),
                            name=f"compact:{region.region_id}",
                        )
                        proc.defuse()
        except Interrupt:
            return

    def _flush_region(self, region: Region):
        """Write the region's memstore out as a new sstable."""
        cells = region.memstore.snapshot_for_flush()
        if not cells:
            region.memstore.discard_flush_snapshot()
            return
        path = f"{region.descriptor.data_dir()}sst-{self.addr}-{next(self._sst_seq)}"
        try:
            sstable = yield from SSTable.write(
                self.dfs,
                path,
                cells,
                rows_per_block=self.settings.rows_per_block,
                preferred=self.local_datanode,
            )
        except Interrupt:
            raise
        except Exception:
            region.memstore.abort_flush()
            return
        region.sstables.append(sstable)
        region.memstore.discard_flush_snapshot()
        self._n_flushes.inc()

    def _compact_region(self, region: Region):
        """Size-tiered minor compaction: merge the region's store files.

        All versions are retained (the MVCC read path depends on them for
        the duration of a run); duplicate cells from idempotent replays
        collapse to one.  A crash mid-compaction leaves the unclosed output
        file behind, which region opening skips.
        """
        try:
            inputs = list(region.sstables)
            merged: Dict[Tuple[str, str, int], Cell] = {}
            for sstable in inputs:
                for block_idx in range(sstable.n_blocks):
                    wire_cells = yield from sstable.read_block(self.dfs, block_idx)
                    for wire in wire_cells:
                        cell = Cell.from_wire(wire)
                        merged[(cell.row, cell.column, cell.version)] = cell
            cells = [merged[key] for key in sorted(merged)]
            path = (
                f"{region.descriptor.data_dir()}"
                f"sst-{self.addr}-c{next(self._sst_seq)}"
            )
            compacted = yield from SSTable.write(
                self.dfs,
                path,
                cells,
                rows_per_block=self.settings.rows_per_block,
                preferred=self.local_datanode,
            )
            if self.regions.get(region.region_id) is not region:
                # The region was closed (moved away) while we
                # compacted.  Abandon: deleting the inputs now would pull
                # files out from under whoever reads them next.  The
                # compacted file stays as a harmless duplicate for the
                # janitor.
                return
            # Swap: keep any sstable flushed while we were compacting.
            region.sstables = [compacted] + [
                s for s in region.sstables if s not in inputs
            ]
            for old in inputs:
                self.cache.invalidate_file(old.path)
                yield from self.dfs.delete(old.path)
            self._n_compactions.inc()
        except Interrupt:
            raise
        except Exception:
            return  # failed compaction: inputs remain authoritative
        finally:
            self._compacting.discard(region.region_id)
