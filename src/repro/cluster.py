"""One-call assembly of the full simulated system.

Builds the paper's Section 4.1 deployment from a :class:`ClusterConfig`:

* a coordination service and a namenode;
* N machines, each a datanode co-located with a region server (the paper
  co-hosts them, so :meth:`crash_server` kills both);
* the transaction manager and the recovery manager co-hosted on one "VM"
  (they share a CPU resource);
* the master, wired to notify the recovery manager on server failures;
* any number of client machines, each with a transactional client and --
  when recovery is enabled -- a client recovery agent.

Also provides dataset preload (bulk import of pre-built sstables, the
analogue of loading YCSB's table before the run) and block-cache warming
(the paper warms the cache before each experiment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.config import ClusterConfig
from repro.core import ClientRecoveryAgent, RecoveryManager, ServerRecoveryAgent
from repro.dfs import DataNode, NameNode
from repro.kvstore import KvClient, Master, RegionServer, SSTable
from repro.kvstore.keys import row_key, split_points_for
from repro.kvstore.regionserver import _block_to_map
from repro.kvstore.sstable import build_blocks_wire, estimate_block_bytes
from repro.kvstore.wal import SYNC
from repro.metrics.spans import COMMIT_STAGES, tracer_for
from repro.sim import Kernel, LatencyModel, Network, Node, Resource
from repro.txn import STORE_SYNC, TM_LOG, TransactionManager, TxnClient
from repro.txn.loggers import LoggerShard
from repro.txn.sharding import shard_addrs as tm_shard_addrs
from repro.zk import ZkClient, ZkService, ZkWatcherMixin

TABLE = "usertable"


class ClientNode(ZkWatcherMixin, Node):
    """A client machine (application + embedded kv/txn clients)."""


@dataclass
class ClientHandle:
    """Everything attached to one client machine."""

    node: ClientNode
    kv: KvClient
    txn: TxnClient
    agent: Optional[ClientRecoveryAgent] = None

    @property
    def client_id(self) -> str:
        """The client identifier (its node address)."""
        return self.node.addr


class SimCluster:
    """A fully wired simulated cluster."""

    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        self.kernel = Kernel(seed=cfg.seed)
        self.net = Network(
            self.kernel,
            LatencyModel(
                mean_latency=cfg.network.mean_latency,
                jitter_fraction=cfg.network.jitter_fraction,
                bandwidth_bytes_per_s=cfg.network.bandwidth_bytes_per_s,
            ),
        )
        self.net.configure_chaos(
            loss_probability=cfg.network.loss_probability,
            duplicate_probability=cfg.network.duplicate_probability,
            delay_spike_probability=cfg.network.delay_spike_probability,
            delay_spike_factor=cfg.network.delay_spike_factor,
        )
        self.zk = ZkService(self.kernel, self.net, settings=cfg.zk)
        self.namenode = NameNode(self.kernel, self.net)

        cache_blocks = self._default_cache_blocks()
        self.datanodes: List[DataNode] = []
        self.servers: List[RegionServer] = []
        self.server_agents: List[Optional[ServerRecoveryAgent]] = []
        for i in range(cfg.kv.n_region_servers):
            dn = DataNode(
                self.kernel, self.net, f"dn{i}", disk_settings=cfg.dfs.datanode_disk
            )
            rs = RegionServer(
                self.kernel,
                self.net,
                f"rs{i}",
                settings=cfg.kv,
                local_datanode=dn.addr,
                replication=cfg.dfs.replication,
                cache_blocks=cache_blocks,
            )
            agent = None
            if cfg.recovery.enabled:
                agent = ServerRecoveryAgent(rs, settings=cfg.recovery, rm_addr="rm")
            self.datanodes.append(dn)
            self.servers.append(rs)
            self.server_agents.append(agent)

        # Dedicated logging nodes, if any: the TM log's remote members.
        self.logger_shards = [
            LoggerShard(self.kernel, self.net, f"log{i}", settings=cfg.txn)
            for i in range(cfg.txn.log_shards)
        ]

        # TM and RM co-hosted: one 2-core VM's worth of shared CPU.  The TM
        # is an array of ``txn.tm_shards`` shard processes sharing that CPU
        # (one of them by default); ``self.tm`` is the authority shard.
        self.tm_rm_cpu = Resource(self.kernel, capacity=2)
        addrs = tm_shard_addrs(cfg.txn.tm_shards)
        self.tms: List[TransactionManager] = [
            TransactionManager(
                self.kernel,
                self.net,
                addr=addr,
                settings=cfg.txn,
                shared_cpu=self.tm_rm_cpu,
                logger_shards=[shard.addr for shard in self.logger_shards],
                shard_index=i,
                shard_addrs=addrs,
            )
            for i, addr in enumerate(addrs)
        ]
        self.tm = self.tms[0]
        self.rm: Optional[RecoveryManager] = None
        if cfg.recovery.enabled:
            self.rm = self._new_recovery_manager()
        self.master = Master(
            self.kernel,
            self.net,
            settings=cfg.kv,
            recovery_manager="rm" if cfg.recovery.enabled else None,
            replication=cfg.dfs.replication,
        )
        self.observer = ClientNode(self.kernel, self.net, "observer")
        self.clients: List[ClientHandle] = []
        self._started = False
        #: Consistency-oracle hooks (see :mod:`repro.check`); attached via
        #: :meth:`attach_history_recorder` / :meth:`attach_invariant_monitor`.
        self.history_recorder = None
        self.invariant_monitor = None

    # ------------------------------------------------------------------
    # sizing
    # ------------------------------------------------------------------
    def _default_cache_blocks(self) -> int:
        """Size each server's cache so the whole dataset fits in one --
        the paper's premise for surviving a server failure."""
        cfg = self.config
        per_region = [
            len(rows)
            for rows in self._region_row_partitions()
        ]
        total_blocks = sum(
            math.ceil(n / cfg.kv.rows_per_block) for n in per_region if n
        )
        return max(int(total_blocks * 1.25) + 8, 16)

    def _split_points(self) -> List[str]:
        return split_points_for(self.config.workload.n_rows, self.config.kv.n_regions)

    def _region_row_partitions(self) -> List[range]:
        n_rows = self.config.workload.n_rows
        n_regions = self.config.kv.n_regions
        bounds = [i * n_rows // n_regions for i in range(n_regions)] + [n_rows]
        return [range(bounds[i], bounds[i + 1]) for i in range(n_regions)]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Boot every component and create the benchmark table."""
        if self._started:
            return self
        procs = [rs.spawn(rs.start(), name="start") for rs in self.servers]
        procs.append(self.master.spawn(self.master.start(), name="start"))
        if self.rm is not None:
            procs.append(self.rm.spawn(self.rm.start(), name="start"))
        for p in procs:
            p.defuse()
        self.kernel.run(until=self.kernel.now + 1.0)
        for rs in self.servers:
            if not rs.started:
                raise RuntimeError(f"{rs.addr} failed to start")
        self.run(
            self.rpc(
                self.master.addr,
                "create_table",
                table=TABLE,
                split_points=self._split_points(),
            )
        )
        self._started = True
        return self

    # ------------------------------------------------------------------
    # helpers for driving the simulation
    # ------------------------------------------------------------------
    def rpc(self, dst: str, method: str, **kw):
        """Generator: one observer-issued RPC."""
        result = yield self.observer.call(dst, method, timeout=60.0, **kw)
        return result

    def run(self, gen):
        """Drive a generator to completion from the observer node."""
        return self.kernel.run_until_complete(self.kernel.process(gen))

    def run_until(self, t: float) -> None:
        """Advance simulated time to ``t``."""
        self.kernel.run(until=t)

    def after(self, delay: float, fn) -> None:
        """Schedule a plain callback ``fn()`` after ``delay`` seconds."""
        timer = self.kernel.timeout(delay)
        timer.callbacks.append(lambda _ev: fn())

    # ------------------------------------------------------------------
    # clients
    # ------------------------------------------------------------------
    def add_client(self, name: Optional[str] = None) -> ClientHandle:
        """Create a client machine (with recovery agent when enabled)."""
        cfg = self.config
        addr = name or f"client{len(self.clients)}"
        if addr in self.net.nodes and self.net.nodes[addr].alive:
            raise ValueError(
                f"address {addr!r} is already taken by a live node"
            )
        node = ClientNode(self.kernel, self.net, addr)
        kv = KvClient(node, settings=cfg.kv)
        agent = None
        if cfg.recovery.enabled:
            zk = ZkClient(node)
            agent = ClientRecoveryAgent(node, zk, client_id=addr, settings=cfg.recovery)
            self.run(agent.start())
        durability = STORE_SYNC if cfg.kv.wal_sync_mode == SYNC else TM_LOG
        txn = TxnClient(
            node,
            kv,
            client_id=addr,
            durability=durability,
            tracker=agent,
            tm_addrs=[tm.addr for tm in self.tms],
            isolation=cfg.txn.isolation,
        )
        if self.history_recorder is not None:
            self.history_recorder.attach(txn)
        handle = ClientHandle(node=node, kv=kv, txn=txn, agent=agent)
        self.clients.append(handle)
        return handle

    def create_table(self, table: str, split_points: Optional[List[str]] = None):
        """Create an additional (empty) table with the given split points.

        The benchmark table ``usertable`` is created by :meth:`start`;
        applications can add their own tables -- transactions may span any
        of them, and recovery covers them all (the TM log records cells per
        table).
        """
        return self.run(
            self.rpc(
                self.master.addr,
                "create_table",
                table=table,
                split_points=split_points or [],
            )
        )

    def add_server(self) -> RegionServer:
        """Scale out: add one machine (datanode + region server) live.

        The master notices the new liveness ephemeral; call
        ``rpc('master', 'balance')`` to shift regions onto it.
        """
        cfg = self.config
        i = len(self.servers)
        dn = DataNode(
            self.kernel, self.net, f"dn{i}", disk_settings=cfg.dfs.datanode_disk
        )
        rs = RegionServer(
            self.kernel,
            self.net,
            f"rs{i}",
            settings=cfg.kv,
            local_datanode=dn.addr,
            replication=cfg.dfs.replication,
            cache_blocks=self.servers[0].cache.capacity if self.servers else 4096,
        )
        agent = None
        if cfg.recovery.enabled:
            agent = ServerRecoveryAgent(rs, settings=cfg.recovery, rm_addr="rm")
        self.datanodes.append(dn)
        self.servers.append(rs)
        self.server_agents.append(agent)
        self.run(rs.start())
        return rs

    # ------------------------------------------------------------------
    # dataset preload and cache warming
    # ------------------------------------------------------------------
    def preload(self) -> int:
        """Bulk-import the initial dataset (version 0) as sstables.

        Returns the number of rows loaded.  This is the simulation analogue
        of YCSB's load phase followed by an HBase bulk import: files appear
        fully replicated and durable without event traffic.
        """
        cfg = self.config
        partitions = self._region_row_partitions()
        status = self.run(self.rpc(self.master.addr, "cluster_status"))
        assignments = status["assignments"]
        splits = [""] + self._split_points()
        rs_by_addr = {rs.addr: rs for rs in self.servers}
        dn_addrs = [dn.addr for dn in self.datanodes]
        loaded = 0
        for idx, rows in enumerate(partitions):
            region_id = f"{TABLE},{splits[idx]}"
            server = rs_by_addr[assignments[region_id]]
            # Wire tuples straight away (no Cell objects): this mints one
            # entry per preloaded row, which dominates cluster setup time.
            cells = [(row_key(i), "f", 0, f"init-{i}") for i in rows]
            index, blocks = build_blocks_wire(cells, cfg.kv.rows_per_block)
            path = f"/data/{TABLE}/{splits[idx] or '_first'}/sst-preload-{idx}"
            records = [(("index", index), 16 * max(len(index), 1))]
            for block in blocks:
                records.append((("block", block), estimate_block_bytes(block)))
            # Replicate on the hosting machine's datanode first, then the
            # next one around the ring (replication factor from config).
            local = server.local_datanode or dn_addrs[0]
            ring = [local] + [d for d in dn_addrs if d != local]
            replicas = ring[: cfg.dfs.replication]
            nbytes = sum(n for _p, n in records)
            self.namenode.bulk_register(path, replicas, len(records), nbytes)
            for dn in self.datanodes:
                if dn.addr in replicas:
                    dn.bulk_store(path, records)
            region = server.regions[region_id]
            region.sstables.append(
                SSTable(path=path, index=index, entries=len(cells))
            )
            loaded += len(cells)
        return loaded

    def warm_caches(self) -> None:
        """Fill each server's block cache with its hosted regions' blocks,
        as the paper does before starting measurements."""
        dn_by_addr = {dn.addr: dn for dn in self.datanodes}
        for rs in self.servers:
            for region in rs.regions.values():
                for sstable in region.sstables:
                    replica = None
                    meta = self.namenode._files.get(sstable.path)
                    if meta is None:
                        continue
                    for addr in meta.replicas:
                        replica = dn_by_addr[addr].replica(sstable.path)
                        if replica is not None:
                            break
                    if replica is None:
                        continue
                    for block_idx in range(sstable.n_blocks):
                        payload = replica.records[1 + block_idx].payload
                        _kind, cells = payload
                        rs.cache.put(
                            (sstable.path, block_idx), _block_to_map(cells)
                        )

    # ------------------------------------------------------------------
    # failure injection
    # ------------------------------------------------------------------
    def crash_server(self, index: int) -> None:
        """Crash one machine: the region server and its datanode together."""
        self.servers[index].crash()
        self.datanodes[index].crash()

    def crash_client(self, index: int) -> None:
        """Crash one client machine (its flushes die mid-flight)."""
        self.clients[index].node.crash()

    def restart_server(self, index: int) -> None:
        """Revive a crashed machine (datanode + region server).

        The datanode's durable replicas survived; the region server rejoins
        empty and picks up work via failover, ``move_region`` or ``balance``.
        """
        self.datanodes[index].revive()
        rs = self.servers[index]
        self.run(rs.restart())

    def crash_tm_shard(self, index: int) -> None:
        """Crash one TM shard process.

        Single-shard transactions on other shards keep committing; cross-
        shard transactions touching this shard park until it restarts
        (the non-blocking protocol resolves any in-doubt ones then).
        """
        self.tms[index].crash()

    def restart_tm_shard(self, index: int) -> None:
        """Revive a crashed TM shard and run its recovery protocol.

        The shard salvages its recovery log, rebuilds certification state
        and prepare-journal reservations, reseeds the timestamp authority
        (shard 0), and resolves in-doubt cross-shard transactions against
        the decision registry.
        """
        tm = self.tms[index]
        tm.revive()
        # Not defused: a restart that raises anything but the Interrupt
        # of a second crash (which kills the process quietly) fails the
        # run instead of leaving a half-rebuilt shard serving requests.
        tm.spawn(tm.restart(), name="tm-restart")

    def _new_recovery_manager(self) -> RecoveryManager:
        return RecoveryManager(
            self.kernel,
            self.net,
            settings=self.config.recovery,
            kv_settings=self.config.kv,
            tm_addrs=[tm.addr for tm in self.tms],
            shared_cpu=self.tm_rm_cpu,
        )

    def restart_recovery_manager(self) -> RecoveryManager:
        """Kill and restart the recovery manager (Section 3.3)."""
        if self.rm is None:
            raise RuntimeError("recovery is disabled in this cluster")
        self.rm.crash()
        self.rm = self._new_recovery_manager()
        proc = self.rm.spawn(self.rm.start(recover=True), name="restart")
        proc.defuse()
        return self.rm

    # ------------------------------------------------------------------
    # consistency oracle
    # ------------------------------------------------------------------
    def attach_history_recorder(self):
        """Attach a :class:`~repro.check.history.HistoryRecorder`.

        Existing and future transactional clients start recording; returns
        the recorder (also kept as :attr:`history_recorder`).
        """
        from repro.check import HistoryRecorder

        recorder = HistoryRecorder(self.kernel)
        for handle in self.clients:
            recorder.attach(handle.txn)
        self.history_recorder = recorder
        return recorder

    def attach_invariant_monitor(self, interval: float = 0.25):
        """Attach (and start) an online threshold-invariant monitor.

        Samples the live T_F/T_P state every ``interval`` simulated
        seconds on the observer node; returns the monitor (also kept as
        :attr:`invariant_monitor`).
        """
        from repro.check import InvariantMonitor

        monitor = InvariantMonitor(self, interval=interval)
        monitor.start()
        self.invariant_monitor = monitor
        return monitor

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    #: Stages below the commit RPC, reported alongside the breakdown.
    PIPELINE_STAGES = (
        "log.group_sync",
        "log.shard_append",
        "flush.writeset",
        "flush.region",
        "rs.apply",
        "wal.sync",
    )

    def metrics_snapshot(self) -> dict:
        """One coherent snapshot of every component registry plus spans.

        Folds each node's :class:`~repro.metrics.registry.MetricsRegistry`
        into ``components`` (keyed ``component:addr``), the shared span
        tracer's per-stage latency summaries into ``spans``, and the
        commit-latency reconciliation into ``commit_breakdown``.  All
        timing comes from the simulation clock, so two same-seed runs
        produce byte-identical snapshots.
        """
        components = {}

        def fold(snap: dict) -> None:
            components[f"{snap['component']}:{snap['addr']}"] = snap

        fold(self.net.metrics())
        for tm in self.tms:
            fold(tm.metrics())
        fold(self.master.metrics())
        if self.rm is not None:
            fold(self.rm.metrics())
            fold(self.rm.recovery_client.metrics())
        for rs in self.servers:
            fold(rs.metrics())
        for shard in self.logger_shards:
            fold(shard.metrics())
        for handle in self.clients:
            fold(handle.txn.metrics())
            fold(handle.kv.metrics())
        if self.history_recorder is not None:
            fold(self.history_recorder.metrics())
        if self.invariant_monitor is not None:
            fold(self.invariant_monitor.metrics())
        stages = tracer_for(self.kernel).stage_summary()
        return {
            "time": round(self.kernel.now, 9),
            "components": components,
            "spans": stages,
            "commit_breakdown": self._commit_breakdown(stages),
        }

    def _commit_breakdown(self, stages: dict) -> dict:
        """Reconcile per-stage commit latencies with the end-to-end RPC.

        ``stage_p50_sum`` over :data:`~repro.metrics.spans.COMMIT_STAGES`
        should land within a few percent of the end-to-end ``commit.rpc``
        p50 -- the derived ``commit.reply`` remainder makes
        per-transaction sums exact, so any residual gap is purely
        percentile skew.
        """
        e2e = stages.get("commit.rpc")
        commit_stages = {s: stages[s] for s in COMMIT_STAGES if s in stages}
        pipeline = {s: stages[s] for s in self.PIPELINE_STAGES if s in stages}
        p50_sum = round(sum(s["p50"] for s in commit_stages.values()), 9)
        out = {
            "end_to_end": e2e,
            "stages": commit_stages,
            "pipeline": pipeline,
            "stage_p50_sum": p50_sum,
        }
        if e2e and e2e["p50"] > 0:
            out["p50_ratio"] = round(p50_sum / e2e["p50"], 6)
        return out

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------
    def cluster_status(self) -> dict:
        """Assignment/liveness snapshot from the master: live servers,
        the assignment and online tables, the failover count.

        This and :meth:`rm_status` are the two reads that are RPCs; every
        other read of the cluster (:meth:`metrics_snapshot`,
        :meth:`storage_stats`) is direct and costs no simulated time.
        Both stay messages because benchmark setup and chaos convergence
        poll them on measured schedules, and a message fewer would
        re-draw the network's shared jitter stream.

        ``salvage_reports`` is the cluster-wide audit view: the salvaging
        reads of a failover happen at the recipients, so it is their
        (non-clean) reports that are gathered here.
        """
        status = self.run(self.rpc(self.master.addr, "cluster_status"))
        status["salvage_reports"] = [
            rep.to_wire() for rs in self.servers for rep in rs.dfs.salvage_reports
        ]
        return status

    def rm_status(self) -> dict:
        """Threshold/recovery snapshot from the recovery manager: global
        and per-component T_F / T_P, pending regions, replay counters.
        An RPC for the reason :meth:`cluster_status` gives.
        """
        return self.run(self.rpc("rm", "rm_status"))

    def storage_stats(self) -> dict:
        """Storage-layer snapshot: per-disk IO/fault counters, read
        integrity counters, and every non-clean salvage report -- the
        storage-layer complement of :meth:`metrics_snapshot`, which does
        not fold raw disk counters.

        The chaos harness embeds this in its report (beside the fabric's
        ``net.metrics()`` counters) so injected torn/corrupt
        records are always accounted for -- salvaged, repaired, or
        truncated, never silently replayed.
        """
        disks = {}
        for dn in self.datanodes:
            disks[dn.addr] = dn.disk.stats()
            disks[dn.addr]["repairs"] = dn.repairs_received
        # Every commit-log store: a logger shard's by address, a TM's
        # zero-hop member by device.
        stores = [(shard.addr, shard.store) for shard in self.logger_shards]
        stores += [(s.disk.name, s) for s in (tm.log.store for tm in self.tms) if s]
        readers = [self.master.dfs] + [rs.dfs for rs in self.servers]
        integrity = {
            "corrupt_reads": sum(r.corrupt_reads for r in readers),
            "records_repaired": sum(r.records_repaired for r in readers),
            "salvages": sum(r.salvages for r in readers),
            "log_lost_unsynced": 0,
        }
        salvage = [rep.to_wire() for r in readers for rep in r.salvage_reports]
        for name, store in stores:
            disks[name] = store.disk.stats()
            integrity["log_lost_unsynced"] += store.stats.lost_unsynced
            salvage.extend(rep.to_wire() for rep in store.salvage_reports)
        return {
            "disks": disks,
            "integrity": integrity,
            "salvage_reports": salvage,
        }
