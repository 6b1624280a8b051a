"""Datanode: stores file replicas and runs the append pipeline.

Appends are chained through the replica list (client -> DN1 -> DN2 -> ...),
with each hop durably writing before acknowledging when ``durable`` is set.
That pipeline cost is the whole reason synchronous WAL persistence is slow
in fig2a, so it is modelled faithfully; block layout below the record level
is not.

Every record is framed with a CRC32 at write time, and each replica draws
its media faults independently (corruption, lost fsyncs, transient write
errors from :class:`~repro.sim.disk.Disk`), so bit rot on one replica is
survivable through the others.  Reads return each record's verification
state; the client decides whether to fall over, repair, or salvage.

Crash semantics: each replica's un-synced tail takes a power cut
(:meth:`repro.storage.StoredFile.power_cut` -- lost, or torn when the
device tears).  A crashed datanode stays down; with the paper's
replication factor of 2 the surviving replica keeps every durably-written
file readable.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import DiskSettings
from repro.errors import DiskWriteError, FileNotFound
from repro.sim.disk import Disk
from repro.sim.events import Interrupt
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.storage import Record, StoredFile, is_segment_header


class DataNode(Node):
    """One storage server of the simulated DFS."""

    def __init__(
        self,
        kernel: Kernel,
        net: Network,
        addr: str,
        namenode: str = "namenode",
        disk_settings: Optional[DiskSettings] = None,
    ) -> None:
        super().__init__(kernel, net, addr)
        self.namenode = namenode
        settings = disk_settings or DiskSettings()
        self.disk = Disk(
            kernel,
            name=addr,
            sync_latency=settings.sync_latency,
            bytes_per_second=settings.bytes_per_second,
            faults=settings.faults,
        )
        self._read_latency = settings.read_latency
        self._replicas: Dict[str, StoredFile] = {}
        self.repairs_received = 0
        self.crash_hooks.append(self._crash_storage)
        self.cast(namenode, "register_datanode", addr=addr)

    def _store(self, payload: object, nbytes: int) -> Record:
        """Frame one record for the medium, drawing this replica's rot."""
        record = Record.framed(payload, nbytes)
        if self.disk.corrupts_record():
            record.damage()
        return record

    # ------------------------------------------------------------------
    # pipeline writes
    # ------------------------------------------------------------------
    def rpc_append(
        self,
        sender: str,
        path: str,
        records: List[Tuple[object, int]],
        pipeline: List[str],
        durable: bool,
    ):
        """Append records, durably if requested, then forward down the chain.

        Returns the replica length after the append.  The reply is sent only
        after every downstream replica has acknowledged, so a successful
        append means all replicas have the data (and their disks too, when
        ``durable``).  A transient disk error rolls the in-memory extension
        back before propagating, so a client retry cannot duplicate records;
        a lying fsync leaves ``synced`` where it was -- a later genuine sync
        covers the data, and only a crash in between loses it.
        """
        replica = self._replicas.setdefault(path, StoredFile(path=path))
        recs = [self._store(p, n) for p, n in records]
        start = len(replica.records)
        replica.records.extend(recs)
        nbytes = sum(r.nbytes for r in recs)
        if durable:
            try:
                ok = yield from self.disk.sync_write(nbytes)
            except DiskWriteError:
                del replica.records[start : start + len(recs)]
                raise
            if ok:
                replica.synced = len(replica.records)
        if pipeline:
            nxt, rest = pipeline[0], pipeline[1:]
            # Bounded forward: a dead downstream replica must fail the
            # pipeline (the client rebuilds it), never hang it.
            yield self.call(
                nxt,
                "append",
                timeout=5.0,
                path=path,
                records=records,
                pipeline=rest,
                durable=durable,
                size=max(nbytes, 64),
            )
        return replica.length

    def rpc_sync(self, sender: str, path: str, pipeline: List[str]):
        """Durably persist any not-yet-synced records of ``path``."""
        replica = self._replicas.get(path)
        if replica is not None and replica.synced < len(replica.records):
            pending = replica.records[replica.synced :]
            ok = yield from self.disk.sync_write(sum(r.nbytes for r in pending))
            if ok:
                replica.synced = len(replica.records)
        if pipeline:
            yield self.call(
                pipeline[0], "sync", timeout=5.0, path=path, pipeline=pipeline[1:]
            )
        return True

    # ------------------------------------------------------------------
    # re-replication
    # ------------------------------------------------------------------
    def rpc_clone_to(self, sender: str, path: str, target: str):
        """Copy the durable part of a local replica to another datanode.

        The wire carries each record's medium state so cloning never
        launders damage: a corrupt source record stays detectably corrupt
        on the new replica.
        """
        replica = self._replicas.get(path)
        if replica is None:
            raise FileNotFound(f"{path} not on {self.addr}")
        records = [
            (r.payload, r.nbytes, r.state) for r in replica.durable_records()
        ]
        nbytes = sum(n for _p, n, _s in records)
        duration = self._read_latency + (
            nbytes / self.disk.bytes_per_second if self.disk.bytes_per_second else 0.0
        )
        yield self.kernel.timeout(duration)  # read the source from disk
        yield self.call(
            target,
            "receive_replica",
            timeout=30.0,
            path=path,
            records=records,
            size=max(nbytes, 64),
        )
        return True

    def rpc_receive_replica(self, sender: str, path: str, records):
        """Install a cloned replica (durably), preserving damage states."""
        stored = StoredFile(path=path)
        for payload, nbytes, state in records:
            record = self._store(payload, nbytes)
            if state == "torn":
                record.tear()
            elif state == "corrupt":
                record.damage()
            stored.records.append(record)
        nbytes = sum(r.nbytes for r in stored.records)
        ok = yield from self.disk.sync_write(nbytes)
        if ok:
            stored.synced = len(stored.records)
        existing = self._replicas.get(path)
        if existing is not None and existing.length > stored.length:
            return False  # raced with concurrent appends; keep the longer one
        self._replicas[path] = stored
        return True

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def rpc_read(self, sender: str, path: str, start: int = 0, count: Optional[int] = None):
        """Read records [start, start+count) with a disk-read charge.

        Returns ``(payload, nbytes, state)`` triples, where ``state`` is
        the checksum verdict for the record on *this* replica's medium
        (``"ok"``, ``"torn"``, ``"corrupt"``).  A datanode materialises a
        replica on first append, so a path it has never seen reads as
        empty -- the namenode is the authority on whether the file exists
        at all.
        """
        replica = self._replicas.get(path)
        if replica is None:
            replica = StoredFile(path=path)
        if count is None:
            chunk = replica.records[start:]
        else:
            chunk = replica.records[start : start + count]
        nbytes = sum(r.nbytes for r in chunk)
        duration = self._read_latency + (
            nbytes / self.disk.bytes_per_second if self.disk.bytes_per_second else 0.0
        )
        yield self.kernel.timeout(duration)
        return [(r.payload, r.nbytes, r.state) for r in chunk]

    def rpc_read_filtered(self, sender: str, path: str, regions: List[str]):
        """Region-filtered read of one WAL segment replica.

        The backup-side half of parallel recovery's fragment fetch: return
        only the records a recovery partition actually needs -- WAL records
        whose region id is in ``regions``, plus segment headers (writer
        validation) and every record that fails verification here (its
        region id cannot be trusted, so the reader must see the damage).
        Entries keep their original indices and the replica's total record
        count, so the client-side cross-replica merge and truncation rule
        work exactly as for a full read.

        The disk charge covers only the records returned: the filter is
        what makes per-recipient fetch cost shrink as the recovery plan
        fans out across more servers.
        """
        replica = self._replicas.get(path)
        if replica is None:
            replica = StoredFile(path=path)
        wanted = set(regions)
        entries = []
        for index, record in enumerate(replica.records):
            state = record.state
            if state == "ok":
                payload = record.payload
                relevant = is_segment_header(payload) or (
                    isinstance(payload, tuple)
                    and len(payload) == 3
                    and payload[0] in wanted
                )
                if not relevant:
                    continue
            entries.append((index, record.payload, record.nbytes, state))
        nbytes = sum(n for _i, _p, n, _s in entries)
        duration = self._read_latency + (
            nbytes / self.disk.bytes_per_second if self.disk.bytes_per_second else 0.0
        )
        yield self.kernel.timeout(duration)
        return {"total": replica.length, "entries": entries}

    def rpc_repair_record(
        self, sender: str, path: str, index: int, payload: object, nbytes: int
    ):
        """Overwrite one damaged record with a verified copy from a peer.

        Only records that currently fail verification are replaced -- a
        stale repair racing a fresh append can never clobber good data.
        """
        replica = self._replicas.get(path)
        if replica is None or index >= len(replica.records):
            return False
        if replica.records[index].state == "ok":
            return False
        yield from self.disk.sync_write(nbytes)
        replica.records[index] = self._store(payload, nbytes)
        self.repairs_received += 1
        return True

    def rpc_drop_replica(self, sender: str, path: str) -> bool:
        """Discard the local replica (file deleted)."""
        self._replicas.pop(path, None)
        return True

    # ------------------------------------------------------------------
    # failure model
    # ------------------------------------------------------------------
    def _crash_storage(self) -> None:
        """Power-cut semantics for every replica's un-synced tail
        (:meth:`~repro.storage.StoredFile.power_cut`)."""
        for replica in self._replicas.values():
            replica.power_cut(self.disk)

    def on_revive(self) -> None:
        """Block report on reconnect, as a restarted HDFS datanode sends.

        While this node was dark the namenode's replication monitor pruned
        it from every closed file it replicated -- and may have restored
        replication by cloning a *damaged* surviving copy.  Our synced
        records are still on the platter, so the namenode must re-learn
        these locations: a later salvaging read consults only listed
        replicas, and ours may be the only intact one.
        """
        held = sorted(p for p, r in self._replicas.items() if r.records)
        if held:
            proc = self.spawn(self._report_blocks(held), name="block-report")
            proc.defuse()

    def _report_blocks(self, held: List[str]):
        # Retried call, not a cast: losing the report mid-storm would
        # leave the namenode blind to our replicas until the next restart.
        while self.alive:
            try:
                yield self.call(
                    self.namenode, "register_datanode", timeout=5.0,
                    addr=self.addr, held=held,
                )
                return
            except Interrupt:
                return
            except Exception:
                yield self.sleep(1.0)

    # test/introspection helpers -- not part of the RPC surface
    def replica(self, path: str) -> Optional[StoredFile]:
        """Direct access to a stored replica (for tests and recovery checks)."""
        return self._replicas.get(path)

    def bulk_store(self, path: str, records: List[Tuple[object, int]]) -> None:
        """Install a pre-built, already-durable replica (dataset preload).

        Preloaded records are unframed (``crc is None``): they model data
        written before checksumming existed, and verify trivially.
        """
        stored = StoredFile(
            path=path,
            records=[Record(payload=p, nbytes=n) for p, n in records],
        )
        stored.synced = len(stored.records)
        self._replicas[path] = stored
