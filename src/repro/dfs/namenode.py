"""The filesystem's metadata server.

The namenode tracks which datanodes replicate which file, hands out replica
sets at create time (local-first placement, mirroring HDFS's
write-affinity that the paper exploits by co-locating datanodes with region
servers), and answers lookups.  Per the paper's assumptions the namenode
itself is reliable; its failure is out of scope.

Files created with ``scatter=True`` (WAL segments) instead draw their
replica set from a seeded RNG substream over the live datanodes, RAMCloud
style: each segment lands on a different backup subset, so a dead server's
log is spread across the whole cluster and recovery reads fan out instead
of hammering the one co-located datanode that also just died.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import FileAlreadyExists, FileNotFound, NotEnoughReplicas
from repro.dfs.files import FileMeta
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node


class NameNode(Node):
    """Metadata service for the simulated DFS."""

    def __init__(
        self,
        kernel: Kernel,
        net: Network,
        addr: str = "namenode",
        repair_interval: float = 1.0,
    ) -> None:
        super().__init__(kernel, net, addr)
        self._files: Dict[str, FileMeta] = {}
        self._datanodes: List[str] = []
        self._placement_cursor = 0
        #: Seeded placement stream for scattered (per-segment random)
        #: replica sets -- independent of every other stream, so enabling
        #: scatter does not perturb workload or fault schedules.
        self._scatter_rng = kernel.rng.substream(f"scatter.{addr}")
        self._repairs_in_progress: set = set()
        self.repairs_completed = 0
        if repair_interval > 0:
            self.spawn(self._replication_monitor(repair_interval), name="re-replication")

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def rpc_register_datanode(
        self, sender: str, addr: str, held: Optional[List[str]] = None
    ) -> bool:
        """A datanode announces itself, optionally with a block report.

        ``held`` lists the paths whose replicas survived on the node's
        disk across a restart.  The replication monitor below prunes
        unreachable holders from closed files' metadata, so a returning
        node must be re-added or its copies -- possibly the only intact
        ones -- are never consulted again.
        """
        if addr not in self._datanodes:
            self._datanodes.append(addr)
        for path in held or []:
            meta = self._files.get(path)
            if meta is not None and addr not in meta.replicas:
                meta.replicas.append(addr)
        return True

    def live_datanodes(self) -> List[str]:
        """Datanodes currently reachable (namenode-side liveness view)."""
        return [dn for dn in self._datanodes if self.net.reachable(self.addr, dn)]

    # ------------------------------------------------------------------
    # namespace operations
    # ------------------------------------------------------------------
    def rpc_create(
        self,
        sender: str,
        path: str,
        replication: int,
        preferred: Optional[str] = None,
        scatter: bool = False,
    ) -> dict:
        """Create ``path`` and assign its replica set.

        Placement: the preferred (co-located) datanode first if it is alive,
        then round-robin over the remaining live datanodes.  With
        ``scatter=True`` the whole replica set is instead a seeded-random
        draw over the live datanodes (no local-first affinity), recorded in
        the file's metadata -- the scattered-backup placement for WAL
        segments.
        """
        if path in self._files:
            raise FileAlreadyExists(path)
        live = self.live_datanodes()
        replicas: List[str] = []
        if scatter and live:
            want = min(replication, len(live))
            # ``live`` is in registration order (deterministic), so the
            # sample is reproducible for a given seed.
            replicas = self._scatter_rng.sample(live, want)
        else:
            if preferred is not None and preferred in live:
                replicas.append(preferred)
            # Round-robin fill so files spread evenly across the cluster.
            candidates = [dn for dn in live if dn not in replicas]
            for _ in range(len(candidates)):
                if len(replicas) >= replication:
                    break
                pick = candidates[self._placement_cursor % len(candidates)]
                self._placement_cursor += 1
                if pick not in replicas:
                    replicas.append(pick)
        if len(replicas) < min(replication, 1):
            raise NotEnoughReplicas(
                f"need {replication} replicas for {path!r}, "
                f"only {len(live)} live datanodes"
            )
        meta = FileMeta(
            path=path, replicas=replicas, replication=replication,
            scattered=scatter,
        )
        self._files[path] = meta
        return meta.to_wire()

    def rpc_stat(self, sender: str, path: str) -> dict:
        """Metadata for ``path``."""
        meta = self._files.get(path)
        if meta is None:
            raise FileNotFound(path)
        return meta.to_wire()

    def rpc_exists(self, sender: str, path: str) -> bool:
        """Whether ``path`` exists."""
        return path in self._files

    def rpc_report_length(self, sender: str, path: str, length: int, nbytes: int) -> bool:
        """Pipeline completion report: advance the acknowledged length."""
        meta = self._files.get(path)
        if meta is None:
            raise FileNotFound(path)
        meta.length = max(meta.length, length)
        meta.nbytes = max(meta.nbytes, nbytes)
        return True

    def rpc_close(self, sender: str, path: str) -> bool:
        """Mark ``path`` immutable."""
        meta = self._files.get(path)
        if meta is None:
            raise FileNotFound(path)
        meta.closed = True
        return True

    def rpc_delete(self, sender: str, path: str) -> bool:
        """Remove ``path`` (idempotent) and notify replicas."""
        meta = self._files.pop(path, None)
        if meta is not None:
            for dn in meta.replicas:
                self.cast(dn, "drop_replica", path=path)
        return True

    def rpc_list_dir(self, sender: str, prefix: str) -> List[str]:
        """All paths starting with ``prefix``, sorted."""
        return sorted(p for p in self._files if p.startswith(prefix))

    # ------------------------------------------------------------------
    # re-replication after datanode loss
    # ------------------------------------------------------------------
    def _replication_monitor(self, interval: float):
        """Restore under-replicated files, as HDFS does in the background.

        For each file with fewer live replicas than its target, a surviving
        replica holder clones the file to a fresh datanode; dead replicas
        are pruned from the metadata so clients stop building pipelines
        through them.
        """
        from repro.sim.events import Interrupt

        try:
            while True:
                yield self.sleep(interval)
                for path in list(self._files):
                    meta = self._files.get(path)
                    if meta is None or path in self._repairs_in_progress:
                        continue
                    live = [
                        dn for dn in meta.replicas
                        if self.net.reachable(self.addr, dn)
                    ]
                    if len(live) == len(meta.replicas) and len(live) >= meta.replication:
                        continue
                    if not live:
                        continue  # all replicas lost: nothing to repair from
                    if not meta.closed:
                        # An open file (the active WAL) is neither pruned
                        # nor cloned: its writer excludes unreachable
                        # replicas from the pipeline itself and rolls to a
                        # fresh segment when it degrades (as in
                        # HDFS/HBase), and a temporarily-dark replica still
                        # holds its synced prefix on disk -- forgetting it
                        # here would lose the only copy if the survivor
                        # dies before the roll.
                        continue
                    meta.replicas = live  # prune dead pipelines immediately
                    candidates = [
                        dn for dn in self.live_datanodes() if dn not in live
                    ]
                    if len(live) >= meta.replication or not candidates:
                        continue
                    target = candidates[self._placement_cursor % len(candidates)]
                    self._placement_cursor += 1
                    self._repairs_in_progress.add(path)
                    self.spawn(
                        self._repair_one(path, live[0], target),
                        name=f"repair:{path}",
                    )
        except Interrupt:
            return

    def _repair_one(self, path: str, source: str, target: str):
        try:
            ok = yield self.call(
                source, "clone_to", timeout=30.0, path=path, target=target
            )
            meta = self._files.get(path)
            if ok and meta is not None and target not in meta.replicas:
                meta.replicas.append(target)
                self.repairs_completed += 1
        except Exception:
            pass  # next monitor tick retries
        finally:
            self._repairs_in_progress.discard(path)

    # ------------------------------------------------------------------
    # bulk load (simulation bootstrap)
    # ------------------------------------------------------------------
    def bulk_register(
        self, path: str, replicas: List[str], length: int, nbytes: int,
        replication: int = 2,
    ) -> None:
        """Register a pre-built file without event traffic.

        Used by the cluster builder's dataset preload -- the analogue of an
        HBase bulk import, which also bypasses the write path.
        """
        if path in self._files:
            raise FileAlreadyExists(path)
        self._files[path] = FileMeta(
            path=path, replicas=list(replicas), length=length, nbytes=nbytes,
            closed=True, replication=replication,
        )
