"""Central configuration for a simulated cluster.

Every latency/size/interval knob used anywhere in the library lives here, so
experiments can state their full parameterisation as one
:class:`ClusterConfig`.  Defaults are calibrated to the paper's testbed
scale: quad-core VMs with 2 cores / 2 GB each, a 100 Mbps switched LAN, two
region servers each co-located with an HDFS datanode, HDFS replication 2,
and a transaction manager with its own fast stable storage (Section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass
class NetworkSettings:
    """One-way message delay model (switched 100 Mbps LAN) plus the chaos
    layer's fault knobs (all zero by default: a polite, loss-free LAN)."""

    mean_latency: float = 0.00025
    jitter_fraction: float = 0.2
    bandwidth_bytes_per_s: float = 12.5e6  # 100 Mbps
    #: Probability that any one message vanishes in flight.
    loss_probability: float = 0.0
    #: Probability that any one message is delivered twice.
    duplicate_probability: float = 0.0
    #: Probability of a heavy-tail delay spike on one delivery.
    delay_spike_probability: float = 0.0
    #: Delay multiplier applied when a spike fires.
    delay_spike_factor: float = 25.0


@dataclass
class DiskFaultSettings:
    """Storage fault-injection knobs (all zero by default: perfect media).

    Faults draw from a dedicated per-device RNG substream, so enabling
    them never perturbs the latency-jitter sequence -- the same contract
    the network chaos layer gives.
    """

    #: Probability that one synchronous write fails with a transient I/O
    #: error (the write is not applied; callers retry).
    write_error_probability: float = 0.0
    #: Probability that one fsync *claims* success but leaves the data in
    #: the volatile cache -- a lying fsync.  The loss only materialises if
    #: the host crashes before a later, genuine sync covers the data.
    lost_fsync_probability: float = 0.0
    #: Probability that any one record lands latently corrupted on the
    #: medium (bit rot); detected by record checksums at read time.
    corruption_probability: float = 0.0
    #: Probability that a crash tears the write in flight: a prefix of the
    #: un-synced tail reaches the platter plus one half-written record,
    #: instead of a clean discard.
    torn_write_probability: float = 0.0


@dataclass
class DiskSettings:
    """Stable-storage device model."""

    sync_latency: float = 0.004
    read_latency: float = 0.002
    bytes_per_second: float = 80e6
    faults: DiskFaultSettings = field(default_factory=DiskFaultSettings)


@dataclass
class DfsSettings:
    """HDFS-like distributed filesystem."""

    replication: int = 2  # the paper used 2 instead of the default 3
    datanode_disk: DiskSettings = field(default_factory=DiskSettings)


@dataclass
class ZkSettings:
    """ZooKeeper-like coordination service."""

    session_timeout: float = 3.0
    tick_interval: float = 0.5


@dataclass
class KvSettings:
    """HBase-like key-value store."""

    n_region_servers: int = 2
    n_regions: int = 8
    rpc_workers: int = 4
    #: CPU service time per get/put at a region server.  Together with
    #: ``rpc_workers`` this sets per-server capacity and hence where the
    #: throughput curves saturate.  Calibrated so a single 2-core-VM server
    #: peaks near 250 tps with 50 client threads, matching Section 4.4.
    op_service_time: float = 0.0019
    #: WAL persistence mode: "async" (the paper's approach: ack first, group
    #: sync shortly after) or "sync" (hsync to HDFS before acking -- the
    #: fig2a baseline).
    wal_sync_mode: str = "async"
    #: Group-sync period for the async WAL.
    wal_sync_interval: float = 0.05
    #: Memstore entries per region that trigger a flush to an sstable.
    memstore_flush_entries: int = 20_000
    #: Store files per region that trigger a (minor) compaction.
    compaction_threshold: int = 4
    #: Rows per data block (the block cache granularity).
    rows_per_block: int = 128
    #: Block-cache capacity, in blocks, per region server.  The paper sized
    #: the dataset to fit in a single server's cache; the cluster builder
    #: applies the same rule when this is None.
    blockcache_blocks: Optional[int] = None
    #: Extra service time for a block-cache miss beyond the DFS read itself.
    cache_miss_penalty: float = 0.0004
    #: Master liveness-check / reassignment reaction period.
    master_tick: float = 0.25
    #: Client-side operation timeout and retry pacing.
    client_op_timeout: float = 2.0
    client_retry_delay: float = 0.25


@dataclass
class TxnSettings:
    """Transaction manager and its recovery log."""

    #: Cap on commits bundled into one log sync.  There is no window: the
    #: log syncs as soon as its device is free, batching what queued
    #: during the previous sync.
    group_commit_max: int = 128
    #: The TM's dedicated stable storage is faster than the datanode disks
    #: ("has access to its own high performance stable storage").
    log_disk: DiskSettings = field(
        default_factory=lambda: DiskSettings(sync_latency=0.0025, bytes_per_second=200e6)
    )
    #: CPU service time per TM request (begin/certify bookkeeping).
    op_service_time: float = 0.0002
    rpc_workers: int = 8
    #: Number of dedicated logger-shard nodes for the recovery log.
    #: 0 keeps the log local to the TM (the common case); >0 stripes
    #: commits across that many shards ("the logging sub-component ... can
    #: be distributed across several nodes", Section 4.1).
    log_shards: int = 0
    #: Snapshot visibility for new transactions.  "latest" (the paper's
    #: implicit behaviour) hands out the newest commit timestamp -- under
    #: deferred update a snapshot may briefly miss a committed-but-
    #: unflushed write-set.  "flushed" hands out the newest *fully flushed*
    #: prefix (clients report flush completions), so snapshots never read
    #: around an in-flight flush, at the cost of slightly older snapshots.
    snapshot_visibility: str = "latest"
    #: How long committed writes stay in the certification window.  Only
    #: relevant for conflict checking, not recovery.
    certification_horizon: int = 10_000
    #: Per-transaction commit decisions remembered for idempotent commit
    #: handling: a retried or duplicated commit request returns the
    #: original verdict instead of being re-certified (which would
    #: self-conflict and double-certify).
    commit_cache_size: int = 50_000
    #: Number of transaction-manager shards.  The certification keyspace
    #: is partitioned by hash across them (``tm0..tmN-1``; a lone TM is
    #: the one-shard case, at address "tm", and owns every key).  A
    #: write-set with one owner commits at that shard -- certify, stamp,
    #: one group-commit append; one spanning several runs a non-blocking
    #: 2PC variant (Gray & Lamport's commit-consensus shape) with the
    #: commit decision registered durably at the timestamp-authority
    #: shard (``tm0``) so no single coordinator crash can wedge a
    #: transaction.
    tm_shards: int = 1
    #: How long a participant shard waits on an undecided prepared
    #: transaction before resolving it itself against the decision
    #: registry (presumed abort).  Only meaningful with ``tm_shards > 1``.
    indoubt_resolve_timeout: float = 1.0
    #: Certification isolation level.  "si" is snapshot isolation
    #: (first-committer-wins).
    #: "ssi" layers serializable snapshot isolation on top: clients ship
    #: their read-sets at commit, and the certifier tracks
    #: rw-antidependency edges against concurrent committers, aborting any
    #: transaction that would complete a dangerous structure (a pivot with
    #: both an incoming and an outgoing rw-edge).  The rw-edge window
    #: lives on the authority shard and every commit decision -- a stamp
    #: grant or a cross-shard registry decision -- certifies against it.
    isolation: str = "si"


@dataclass
class RecoverySettings:
    """The paper's failure-recovery middleware."""

    enabled: bool = True
    client_heartbeat_interval: float = 1.0
    server_heartbeat_interval: float = 1.0
    #: Heartbeats missed before a client is declared dead.
    missed_heartbeat_limit: int = 3
    #: Tracking-queue size that triggers a stuck-region alert (Section 3.2).
    queue_alert_threshold: int = 50_000
    #: Per-heartbeat fixed processing cost and per-tracked-entry cost; these
    #: model the synchronized-data-structure and coordination work whose
    #: contention fig2b sweeps (lock scans, ZK round-trip handling).
    heartbeat_fixed_cost: float = 0.004
    heartbeat_entry_cost: float = 0.000025
    #: Truncate the TM log up to the global persisted threshold.
    truncate_log: bool = True


@dataclass
class WorkloadSettings:
    """YCSB-like transactional workload (Section 4.1)."""

    n_rows: int = 100_000
    n_clients: int = 50
    ops_per_txn: int = 10
    read_fraction: float = 0.5
    distribution: str = "uniform"  # or "zipfian"
    zipf_theta: float = 0.99
    #: Offered load in transactions/second across all client threads; None
    #: means closed-loop (each thread fires as fast as it can).
    target_tps: Optional[float] = None
    duration: float = 60.0


@dataclass
class ClusterConfig:
    """Complete parameterisation of one simulated cluster + workload."""

    seed: int = 0
    network: NetworkSettings = field(default_factory=NetworkSettings)
    dfs: DfsSettings = field(default_factory=DfsSettings)
    zk: ZkSettings = field(default_factory=ZkSettings)
    kv: KvSettings = field(default_factory=KvSettings)
    txn: TxnSettings = field(default_factory=TxnSettings)
    recovery: RecoverySettings = field(default_factory=RecoverySettings)
    workload: WorkloadSettings = field(default_factory=WorkloadSettings)

    def with_(self, **overrides) -> "ClusterConfig":
        """A copy of this config with top-level fields replaced."""
        return replace(self, **overrides)


def paper_setup(seed: int = 0) -> ClusterConfig:
    """The paper's Section 4.1 setup at full scale.

    Half a million rows, 50 client threads, two region servers (each
    co-located with a datanode), replication factor 2, dataset sized to fit
    in one server's block cache.
    """
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = 500_000
    config.workload.n_clients = 50
    return config


def small_setup(seed: int = 0) -> ClusterConfig:
    """A scaled-down setup for tests and quick examples."""
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = 5_000
    config.workload.n_clients = 8
    config.workload.duration = 10.0
    config.kv.n_regions = 4
    return config
