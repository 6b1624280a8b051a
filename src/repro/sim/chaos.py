"""Randomised crash-recovery chaos harness.

Drives a live transactional workload against a full simulated cluster
while a seeded storm of faults plays out -- message loss, duplication,
delay spikes, slow nodes, partitions, server-machine crashes with later
restarts, and client crashes -- then heals everything, waits for the
recovery middleware to converge, and audits the paper's guarantee: every
acknowledged commit is readable at its commit timestamp.

The whole storm derives from the cluster seed through dedicated RNG
substreams, so a run is bit-for-bit reproducible: :func:`run_chaos` with
the same seed and settings produces an identical :class:`ChaosReport`,
including the fault trace and every fabric counter.  The ``tests/chaos``
suite sweeps seeds and asserts zero :class:`~repro.workload.verify`
violations; ``python -m repro chaos`` runs the same sweep from the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.cluster import TABLE, ClientHandle, SimCluster
from repro.config import ClusterConfig
from repro.errors import TxnConflict
from repro.kvstore.keys import row_key
from repro.sim.events import Interrupt


@dataclass(frozen=True)
class ChaosSettings:
    """Parameterisation of one chaos run (the storm and its workload)."""

    #: Seconds of quiet workload before the storm starts.
    warmup: float = 1.0
    #: Storm length (faults are drawn inside this window).
    storm: float = 8.0
    #: Maximum time after the storm for the middleware to converge (the
    #: harness polls and moves on as soon as it has).
    settle: float = 45.0
    #: Extra quiet period used to confirm the thresholds are stationary.
    confirm: float = 5.0

    # -- workload ---------------------------------------------------------
    n_writers: int = 3
    n_rows: int = 2_000
    writes_per_txn: int = 5
    #: Snapshot reads per transaction (before the writes), so the SI
    #: checker has real read events to audit, not a vacuous pass.
    reads_per_txn: int = 2
    think_time: float = 0.05

    # -- consistency oracle -----------------------------------------------
    #: Record a full operation history and run the SI checker plus the
    #: online threshold-invariant monitor; any anomaly fails the run.
    oracle: bool = True
    #: Invariant-monitor sampling interval (simulated seconds).
    monitor_interval: float = 0.25

    # -- cluster shape ----------------------------------------------------
    n_servers: int = 3
    n_regions: int = 6
    #: Certification isolation level (``txn.isolation``): "ssi" certifies
    #: rw-antidependencies too, and the oracle then additionally requires
    #: the recorded history's serialization graph to be fully acyclic.
    isolation: str = "si"
    #: TM shard count (``txn.tm_shards``).
    tm_shards: int = 1
    #: Kill-a-TM-shard injections inside the storm: each crashes one
    #: randomly drawn TM shard and restarts it after a dwell, exercising
    #: the non-blocking commit protocol's in-doubt resolution end to end.
    tm_shard_kills: int = 0

    # -- ambient fabric chaos (active for the whole storm) ----------------
    loss_probability: float = 0.02
    duplicate_probability: float = 0.01
    delay_spike_probability: float = 0.005
    delay_spike_factor: float = 20.0

    # -- discrete faults (count drawn positions inside the storm) ---------
    server_crashes: int = 1
    #: Second-crash injections *inside* a recovery window: a watcher polls
    #: the recovery manager's pending regions and, while any are pinned,
    #: crashes a live server currently hosting one of them -- the
    #: recovery-of-recovery path (a recipient dies mid-replay and the
    #: orphaned partitions must be re-covered by a fresh failover).  Each
    #: victim restarts after a crash-like dwell.
    kill_during_recovery: int = 0
    client_crashes: int = 1
    partitions: int = 1
    loss_bursts: int = 1
    degradations: int = 1
    #: Loss probability while a burst is active.
    burst_loss_probability: float = 0.15
    #: Latency multiplier range for a degraded ("slow") node.
    degradation_factor: float = 6.0

    # -- ambient storage faults (datanode disks, active for the storm) ----
    #: All zero by default: the fabric-only storms of PR 1 reproduce
    #: bit-for-bit.  The disk-fault profile (``disk_chaos_settings``)
    #: turns them on.
    disk_write_error_probability: float = 0.0
    disk_lost_fsync_probability: float = 0.0
    disk_corruption_probability: float = 0.0
    disk_torn_write_probability: float = 0.0

    # -- acute disk-fault storms (one device turns hostile for a while) ---
    disk_fault_storms: int = 0
    #: Per-record corruption probability on the stormed device.  High on
    #: purpose: with replication 2 the *other* replica still runs at the
    #: ambient rate, so double-damage of one record stays improbable
    #: while salvage/repair gets real work.
    storm_corruption_probability: float = 0.05
    #: Lost-fsync probability on the stormed device.
    storm_lost_fsync_probability: float = 0.25

    @property
    def disk_faults_enabled(self) -> bool:
        """Whether this run injects any storage faults at all."""
        return (
            self.disk_write_error_probability > 0
            or self.disk_lost_fsync_probability > 0
            or self.disk_corruption_probability > 0
            or self.disk_torn_write_probability > 0
            or self.disk_fault_storms > 0
        )


def disk_chaos_settings(**overrides) -> "ChaosSettings":
    """The disk-fault chaos profile.

    Ambient media faults on every datanode disk for the whole storm --
    transient write errors, lying fsyncs, latent corruption, and torn
    final writes on crash -- plus one acute per-device fault storm.  The
    ambient corruption rate is kept low because replicas draw damage
    independently: durability needs *some* intact copy of each record,
    so the profile stresses the salvage/repair paths hard while keeping
    the probability of damaging every copy of one record negligible.
    The TM's log device stays clean, matching the paper's assumption of
    reliable TM stable storage (its salvage path is unit-tested instead).
    """
    # The write-error rate is sized to the storm's durable-write volume:
    # with fan-out recovery the master no longer writes recovered-edits
    # files mid-storm, so the heartbeat WAL syncs are the main draw sites
    # and a lower rate would leave whole sweeps without a single hit.
    base = dict(
        disk_write_error_probability=0.05,
        disk_lost_fsync_probability=0.02,
        disk_corruption_probability=0.001,
        disk_torn_write_probability=0.6,
        disk_fault_storms=1,
    )
    base.update(overrides)
    return ChaosSettings(**base)


def kill_during_recovery_settings(**overrides) -> "ChaosSettings":
    """The kill-during-recovery chaos profile.

    The regular storm plus one targeted second crash: as soon as the
    first machine failure pins regions at the recovery manager, a watcher
    kills a live server that is hosting one of those pending recovery
    partitions.  That exercises the recovery-of-recovery path end to end:
    the cascading failover must re-partition only the orphaned regions,
    the pin must transfer keeping the lower T_P, and the replay must stay
    idempotent across the repeated passes.  A longer settle budget covers
    the extra detect-and-replay round the second failover costs.
    """
    base = dict(kill_during_recovery=1, settle=60.0)
    base.update(overrides)
    return ChaosSettings(**base)


def tm_shard_chaos_settings(**overrides) -> "ChaosSettings":
    """The kill-a-TM-shard chaos profile.

    The regular storm against a sharded transaction manager (2 shards by
    default) plus one targeted TM-shard crash with a later restart.
    Cross-shard transactions prepared on the dead shard must either abort
    cleanly or complete via the decision registry once the shard's
    recovery protocol runs; the settle gate additionally requires every
    shard alive with zero in-doubt transactions, so a wedged (permanently
    in-doubt) prepare fails the run as non-converged.  A longer settle
    budget covers the shard's restart-and-resolve round.
    """
    base = dict(tm_shards=2, tm_shard_kills=1, settle=60.0)
    base.update(overrides)
    return ChaosSettings(**base)


def ssi_chaos_settings(**overrides) -> "ChaosSettings":
    """The serializable-SSI chaos profile.

    The TM-shard storm run under ``txn.isolation="ssi"``: a sharded TM (2
    shards by default) with one shard kill mid-storm, so certification --
    including the rw-antidependency check at the authority -- survives a
    crash and restart of the very node holding the SSI window.  On top of
    the usual audits the oracle runs the full serializability checker
    over the recorded history: under SSI the direct serialization graph
    must be acyclic, so a single write-skew slipping past certification
    fails the run.
    """
    base = dict(isolation="ssi", tm_shards=2, tm_shard_kills=1, settle=60.0)
    base.update(overrides)
    return ChaosSettings(**base)


@dataclass
class ChaosReport:
    """Everything one chaos run produced; equality is bit-for-bit."""

    seed: int
    trace: List[str] = field(default_factory=list)
    acknowledged: int = 0
    attempted: int = 0
    conflicts: int = 0
    errors: int = 0
    violations: List[str] = field(default_factory=list)
    #: Snapshot-isolation anomalies found by the offline checker over the
    #: recorded history (empty on a correct run).
    anomalies: List[str] = field(default_factory=list)
    #: Threshold-invariant violations caught by the online monitor.
    invariant_violations: List[str] = field(default_factory=list)
    #: Oracle accounting: checker counters, history size, monitor samples.
    oracle: dict = field(default_factory=dict)
    converged: bool = False
    global_tf: int = 0
    global_tp: int = 0
    net: dict = field(default_factory=dict)
    tm: dict = field(default_factory=dict)
    storage: dict = field(default_factory=dict)
    #: Full unified snapshot (:meth:`SimCluster.metrics_snapshot`): every
    #: component registry plus commit-path span summaries, including
    #: spans truncated by crashes mid-stage.
    metrics: dict = field(default_factory=dict)
    events: int = 0

    @property
    def ok(self) -> bool:
        """The run upheld every checked guarantee and converged: durable
        acked commits, zero SI anomalies, zero invariant violations."""
        return (
            not self.violations
            and not self.anomalies
            and not self.invariant_violations
            and self.converged
            and self.acknowledged > 0
        )

    def summary(self) -> str:
        """One line for sweep output."""
        verdict = "OK" if self.ok else "FAIL"
        line = (
            f"seed {self.seed:>4}: {verdict}  "
            f"acked={self.acknowledged} conflicts={self.conflicts} "
            f"errors={self.errors} violations={len(self.violations)} "
            f"anomalies={len(self.anomalies)} "
            f"inv={len(self.invariant_violations)} "
            f"converged={self.converged} "
            f"lost={self.net.get('messages_lost', 0)} "
            f"dup={self.net.get('messages_duplicated', 0)} "
            f"retries={self.net.get('rpc_retries', 0)}"
        )
        disks = self.storage.get("disks", {})
        injected = {
            kind: sum(d.get(kind, 0) for d in disks.values())
            for kind in ("write_errors", "lost_fsyncs", "corruptions", "torn_writes")
        }
        if any(injected.values()):
            integrity = self.storage.get("integrity", {})
            line += (
                f" werr={injected['write_errors']}"
                f" liedfsync={injected['lost_fsyncs']}"
                f" rot={injected['corruptions']}"
                f" torn={injected['torn_writes']}"
                f" repaired={integrity.get('records_repaired', 0)}"
                f" salvages={integrity.get('salvages', 0)}"
            )
        return line


def build_chaos_cluster(seed: int, settings: ChaosSettings) -> SimCluster:
    """A cluster tuned so the store alone would lose data on failure.

    As in the recovery test suites: the WAL group-sync interval is huge, so
    durability across crashes rests entirely on the recovery middleware.
    """
    config = ClusterConfig(seed=seed)
    config.kv.n_region_servers = settings.n_servers
    config.kv.n_regions = settings.n_regions
    config.txn.tm_shards = settings.tm_shards
    config.txn.isolation = settings.isolation
    config.kv.wal_sync_interval = 300.0
    config.workload.n_rows = settings.n_rows
    config.recovery.client_heartbeat_interval = 0.5
    config.recovery.server_heartbeat_interval = 0.5
    config.zk.session_timeout = 1.0
    config.zk.tick_interval = 0.2
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def run_chaos(
    seed: int,
    settings: Optional[ChaosSettings] = None,
    progress: Optional[Callable[[str], None]] = None,
    history_path: Optional[str] = None,
) -> ChaosReport:
    """One full chaos run: storm, heal, converge, audit.

    Deterministic in ``(seed, settings)``; ``progress`` (if given) receives
    the same trace lines the report collects, as they happen.  With the
    oracle enabled (the default) the run also records the full operation
    history, checks it for snapshot-isolation anomalies, and monitors the
    threshold invariants online; ``history_path`` (if given) saves the
    history file for ``repro check`` replay.
    """
    from repro.workload.verify import CommitLedger

    s = settings or ChaosSettings()
    cluster = build_chaos_cluster(seed, s)
    rng = cluster.kernel.rng.substream("chaos.harness")
    report = ChaosReport(seed=seed)
    if s.oracle:
        cluster.attach_history_recorder()
        cluster.attach_invariant_monitor(interval=s.monitor_interval)

    def note(msg: str) -> None:
        line = f"{cluster.kernel.now:9.4f}  {msg}"
        report.trace.append(line)
        if progress is not None:
            progress(line)

    # -- workload ---------------------------------------------------------
    ledger = CommitLedger()
    writers: List[ClientHandle] = [
        cluster.add_client(f"w{i}") for i in range(s.n_writers)
    ]

    def writer_loop(handle: ClientHandle, wid: str):
        wrng = cluster.kernel.rng.substream(f"chaos.writer.{wid}")
        counter = 0
        try:
            while True:
                counter += 1
                rows = sorted(wrng.sample(range(s.n_rows), s.writes_per_txn))
                reads = (
                    sorted(wrng.sample(range(s.n_rows), s.reads_per_txn))
                    if s.reads_per_txn
                    else []
                )
                report.attempted += 1
                ctx = None
                try:
                    ctx = yield from handle.txn.begin()
                    for i in reads:
                        yield from handle.txn.read(ctx, TABLE, row_key(i))
                    for i in rows:
                        handle.txn.write(ctx, TABLE, row_key(i), f"{wid}.{counter}")
                    yield from handle.txn.commit(ctx)
                except Interrupt:
                    raise
                except TxnConflict:
                    report.conflicts += 1
                    ledger.record_outcome(ctx)
                    continue
                except Exception:
                    report.errors += 1  # not acknowledged: no guarantee
                    continue
                ledger.record(ctx, TABLE)
                yield handle.node.sleep(wrng.uniform(0.5, 1.5) * s.think_time)
        except Interrupt:
            return

    for i, handle in enumerate(writers):
        proc = handle.node.spawn(writer_loop(handle, f"w{i}"), name=f"writer{i}")
        proc.defuse()

    # -- fault scheduling -------------------------------------------------
    t0 = cluster.kernel.now + s.warmup
    storm_end = t0 + s.storm
    restarting: set = set()

    def ambient_disk_faults(disk) -> None:
        disk.configure_faults(
            write_error_probability=s.disk_write_error_probability,
            lost_fsync_probability=s.disk_lost_fsync_probability,
            corruption_probability=s.disk_corruption_probability,
            torn_write_probability=s.disk_torn_write_probability,
        )

    def storm_on() -> None:
        cluster.net.configure_chaos(
            loss_probability=s.loss_probability,
            duplicate_probability=s.duplicate_probability,
            delay_spike_probability=s.delay_spike_probability,
            delay_spike_factor=s.delay_spike_factor,
        )
        note(
            f"storm on: loss={s.loss_probability} dup={s.duplicate_probability} "
            f"spike={s.delay_spike_probability}"
        )
        if s.disk_faults_enabled:
            for dn in cluster.datanodes:
                ambient_disk_faults(dn.disk)
            note(
                f"disk faults on: werr={s.disk_write_error_probability} "
                f"liedfsync={s.disk_lost_fsync_probability} "
                f"rot={s.disk_corruption_probability} "
                f"torn={s.disk_torn_write_probability}"
            )

    def disk_fault_storm(i: int, dwell: float) -> None:
        disk = cluster.datanodes[i].disk
        note(
            f"disk storm on {disk.name}: rot={s.storm_corruption_probability} "
            f"liedfsync={s.storm_lost_fsync_probability} for {dwell:.2f}s"
        )
        disk.configure_faults(
            corruption_probability=s.storm_corruption_probability,
            lost_fsync_probability=s.storm_lost_fsync_probability,
        )

        def calm() -> None:
            note(f"disk storm over on {disk.name}")
            ambient_disk_faults(disk)

        cluster.after(dwell, calm)

    def crash_machine(i: int) -> None:
        rs = cluster.servers[i]
        if not rs.alive or i in restarting:
            return
        note(f"crash machine {rs.addr}+{cluster.datanodes[i].addr}")
        cluster.crash_server(i)

    def restart_machine(i: int) -> None:
        rs = cluster.servers[i]
        if rs.alive or i in restarting:
            return
        restarting.add(i)
        note(f"restart machine {rs.addr}")
        if not cluster.datanodes[i].alive:
            cluster.datanodes[i].revive()

        def bring_up():
            # A restarted server re-registers under the same address, so
            # wait until the master has *observed* the death (dropped the
            # address from its live set) -- otherwise the re-appearing
            # ephemeral masks the death and its regions are never
            # reassigned.  Once observed, the failover is queued and
            # excludes the old incarnation by name, so re-registering is
            # safe -- and necessary: if every server is down, the pending
            # failovers are themselves waiting for a server to register.
            while rs.addr in cluster.master._live_servers:
                yield cluster.kernel.timeout(0.25)
            try:
                # Mid-storm the bring-up itself can lose messages (session
                # open, WAL create, ephemeral registration); retry until
                # the server is genuinely back rather than leaving it
                # half-started.  ``restart`` no-ops once revived, so the
                # retry path finishes with a direct ``start``.
                while True:
                    try:
                        if not rs.alive:
                            yield from rs.restart()
                        elif not rs.started:
                            yield from rs.start()
                        break
                    except Interrupt:
                        return
                    except Exception:
                        yield cluster.kernel.timeout(1.0)
            finally:
                restarting.discard(i)

        proc = cluster.kernel.process(bring_up())
        proc.defuse()

    def crash_tm_shard(i: int) -> None:
        tm = cluster.tms[i]
        if not tm.alive:
            return
        note(f"crash tm shard {tm.addr}")
        cluster.crash_tm_shard(i)

    def restart_tm_shard(i: int) -> None:
        tm = cluster.tms[i]
        if tm.alive:
            return
        note(f"restart tm shard {tm.addr}")
        cluster.restart_tm_shard(i)

    def crash_client(i: int) -> None:
        node = writers[i].node
        if not node.alive:
            return
        note(f"crash client {node.addr}")
        node.crash()

    def partition_client(i: int, dwell: float) -> None:
        node = writers[i].node
        if not node.alive:
            return
        others = [n for n in cluster.net.nodes if n != node.addr]
        note(f"partition client {node.addr} for {dwell:.2f}s")
        cluster.net.partition([node.addr], others)
        cluster.after(dwell, heal_all)

    def partition_server(i: int, dwell: float) -> None:
        rs = cluster.servers[i]
        if not rs.alive or i in restarting:
            return
        island = [rs.addr, cluster.datanodes[i].addr]
        others = [n for n in cluster.net.nodes if n not in island]
        note(f"partition server {rs.addr} for {dwell:.2f}s")
        cluster.net.partition(island, others)

        def heal_and_fence() -> None:
            # A partitioned server is treated as crashed (Section 3.1): its
            # session expired and its regions failed over, so fence the
            # zombie before healing -- the real store's self-abort on
            # session expiry -- and bring it back as a fresh incarnation.
            if rs.alive:
                note(f"fence zombie {rs.addr}")
                cluster.crash_server(i)
            heal_all()
            restart_machine(i)

        cluster.after(dwell, heal_and_fence)

    def heal_all() -> None:
        note("heal partitions")
        cluster.net.heal()

    def loss_burst(dwell: float) -> None:
        note(f"loss burst {s.burst_loss_probability} for {dwell:.2f}s")
        cluster.net.configure_chaos(loss_probability=s.burst_loss_probability)

        def end_burst() -> None:
            note("loss burst over")
            cluster.net.configure_chaos(loss_probability=s.loss_probability)

        cluster.after(dwell, end_burst)

    def degrade_node(addr: str, factor: float, dwell: float) -> None:
        note(f"degrade {addr} x{factor:.1f} for {dwell:.2f}s")
        cluster.net.degrade(addr, factor)
        cluster.after(dwell, lambda: cluster.net.restore(addr))

    cluster.after(t0 - cluster.kernel.now, storm_on)

    def draw_in_storm(margin: float) -> float:
        return rng.uniform(t0 + 0.2, max(t0 + 0.3, storm_end - margin))

    now = cluster.kernel.now
    for _ in range(s.server_crashes):
        at = draw_in_storm(margin=3.0)
        dwell = rng.uniform(2.0, 3.5)
        victim = rng.randrange(s.n_servers)
        cluster.after(at - now, lambda v=victim: crash_machine(v))
        cluster.after(at + dwell - now, lambda v=victim: restart_machine(v))
    for _ in range(s.client_crashes):
        at = draw_in_storm(margin=2.0)
        victim = rng.randrange(s.n_writers)
        cluster.after(at - now, lambda v=victim: crash_client(v))
    for _ in range(s.partitions):
        at = draw_in_storm(margin=3.0)
        dwell = rng.uniform(1.5, 2.5)
        if rng.random() < 0.5:
            victim = rng.randrange(s.n_writers)
            cluster.after(
                at - now, lambda v=victim, d=dwell: partition_client(v, d)
            )
        else:
            victim = rng.randrange(s.n_servers)
            cluster.after(
                at - now, lambda v=victim, d=dwell: partition_server(v, d)
            )
    for _ in range(s.loss_bursts):
        at = draw_in_storm(margin=1.5)
        dwell = rng.uniform(0.5, 1.5)
        cluster.after(at - now, lambda d=dwell: loss_burst(d))
    for _ in range(s.degradations):
        at = draw_in_storm(margin=1.0)
        dwell = rng.uniform(1.0, 2.5)
        addr = rng.choice(
            [rs.addr for rs in cluster.servers]
            + [tm.addr for tm in cluster.tms]
            + ["zk"]
        )
        factor = rng.uniform(2.0, s.degradation_factor)
        cluster.after(
            at - now, lambda a=addr, f=factor, d=dwell: degrade_node(a, f, d)
        )
    for _ in range(s.disk_fault_storms):
        at = draw_in_storm(margin=1.5)
        dwell = rng.uniform(1.0, 2.5)
        victim = rng.randrange(s.n_servers)
        cluster.after(
            at - now, lambda v=victim, d=dwell: disk_fault_storm(v, d)
        )
    if s.tm_shard_kills > 0 and len(cluster.tms) > 1:
        for _ in range(s.tm_shard_kills):
            at = draw_in_storm(margin=3.0)
            dwell = rng.uniform(1.5, 3.0)
            victim = rng.randrange(len(cluster.tms))
            cluster.after(at - now, lambda v=victim: crash_tm_shard(v))
            cluster.after(
                at + dwell - now, lambda v=victim: restart_tm_shard(v)
            )

    # -- kill-during-recovery watcher -------------------------------------
    # Crashes a *recipient* of an in-flight recovery plan: whenever the
    # recovery manager holds pinned regions, the servers those regions are
    # currently assigned to are mid-replay -- killing one forces the
    # cascading failover to re-partition the orphaned work.
    if s.kill_during_recovery > 0 and cluster.rm is not None:

        def recovery_killer():
            kills = 0
            try:
                while kills < s.kill_during_recovery:
                    yield cluster.kernel.timeout(0.25)
                    pending = cluster.rm.pending_regions
                    if not pending:
                        continue
                    hosts = {
                        cluster.master.assignments.get(region)
                        for region in pending
                    }
                    victims = [
                        i
                        for i, rs in enumerate(cluster.servers)
                        if rs.addr in hosts and rs.alive and i not in restarting
                    ]
                    if not victims:
                        continue
                    victim = victims[rng.randrange(len(victims))]
                    kills += 1
                    note(
                        f"kill during recovery: {cluster.servers[victim].addr} "
                        f"(pending={sorted(pending)})"
                    )
                    crash_machine(victim)
                    cluster.after(
                        rng.uniform(2.0, 3.5),
                        lambda v=victim: restart_machine(v),
                    )
            except Interrupt:
                return

        killer_proc = cluster.kernel.process(recovery_killer())
        killer_proc.defuse()

    # -- storm ------------------------------------------------------------
    cluster.run_until(storm_end)

    # -- cleanup: back to a polite fabric, everything running -------------
    cluster.net.configure_chaos(
        loss_probability=0.0,
        duplicate_probability=0.0,
        delay_spike_probability=0.0,
    )
    cluster.net.heal()
    cluster.net.restore()
    if s.disk_faults_enabled:
        # Media stop *acquiring* new faults; everything already torn or
        # rotted stays on the platters for recovery to salvage.
        for dn in cluster.datanodes:
            dn.disk.configure_faults(
                write_error_probability=0.0,
                lost_fsync_probability=0.0,
                corruption_probability=0.0,
                torn_write_probability=0.0,
            )
        note("disk faults off: media calm, damage persists")
    note("storm off: fabric clean")
    for i, rs in enumerate(cluster.servers):
        if not rs.alive:
            restart_machine(i)
    for i, tm in enumerate(cluster.tms):
        if not tm.alive:
            restart_tm_shard(i)

    def janitor():
        # Servers can still die *after* the storm: a region server whose
        # coordination session expired mid-storm self-fences only when its
        # next ping discovers the expiry.  Restart whatever falls over so
        # the cluster can converge.
        while True:
            yield cluster.kernel.timeout(1.0)
            for i, rs in enumerate(cluster.servers):
                if not rs.alive and i not in restarting:
                    note(f"janitor: restart {rs.addr}")
                    restart_machine(i)

    janitor_proc = cluster.kernel.process(janitor())
    janitor_proc.defuse()
    cluster.run_until(cluster.kernel.now + 2.0)
    for handle in writers:
        if handle.node.alive:
            for proc in list(handle.node._procs):
                if proc.name and "writer" in proc.name:
                    proc.interrupt("chaos harness stop")
    note("writers stopped")

    # -- convergence ------------------------------------------------------
    # Poll up to the settle budget; recovery time varies with how the
    # storm landed (serialised failovers, retried fetches), so a fixed
    # sampling instant would misread a slow-but-correct run as wedged.
    # A settled-looking sample is then held for the confirm window: the
    # thresholds ratchet (T_P up -> client thresholds up -> T_F up) in
    # heartbeat-interval hops, so the first T_P == T_F moment need not be
    # the fixed point -- if the confirm window catches movement, polling
    # resumes until the budget runs out.
    def settled(rm_st: dict, cl_st: dict) -> bool:
        return (
            rm_st["global_tp"] == rm_st["global_tf"]
            and not rm_st["pending_regions"]
            and not rm_st["recovering"]
            and all(cl_st["online"].values())
            and all(rs.alive for rs in cluster.servers)
            # Sharded TM: every shard back up, nothing left in-doubt (a
            # permanently in-doubt prepare would also freeze T_F via its
            # reservation aborting the key's writers, but gate explicitly).
            and all(tm.alive for tm in cluster.tms)
            and not any(tm._prepared for tm in cluster.tms)
        )

    deadline = cluster.kernel.now + s.settle
    report.converged = False
    while True:
        while cluster.kernel.now < deadline:
            cluster.run_until(min(deadline, cluster.kernel.now + 1.0))
            if settled(cluster.rm_status(), cluster.cluster_status()):
                break
        rm_a = cluster.rm_status()
        cluster.run_until(cluster.kernel.now + s.confirm)
        rm_b = cluster.rm_status()
        if rm_b["global_tf"] == rm_a["global_tf"] and settled(
            rm_b, cluster.cluster_status()
        ):
            report.converged = True
            break
        if cluster.kernel.now >= deadline:
            break
    report.global_tf = rm_b["global_tf"]
    report.global_tp = rm_b["global_tp"]
    note(
        f"converged={report.converged} "
        f"tf={report.global_tf} tp={report.global_tp}"
    )

    # -- audit ------------------------------------------------------------
    report.acknowledged = len(ledger)
    try:
        report.violations = [str(v) for v in ledger.verify(cluster)]
    except Exception as exc:  # a wedged cluster: report, don't explode
        report.violations = [f"audit aborted: {exc!r}"]
    report.net = cluster.net_stats()
    report.tm = cluster.status(cluster.tm.addr)
    report.storage = cluster.storage_stats()

    # -- consistency oracle -----------------------------------------------
    if s.oracle:
        from repro.check import SIChecker

        recorder = cluster.history_recorder
        monitor = cluster.invariant_monitor
        monitor.check_once()  # one final sample of the converged state
        check = SIChecker(
            recorder.events, initial_value=preload_value_fn(s.n_rows)
        ).check()
        report.anomalies = [str(a) for a in check.anomalies]
        if s.isolation == "ssi":
            # SSI claims full serializability: the direct serialization
            # graph over the recorded history must be acyclic.  (SI runs
            # skip this entirely, keeping their reports bit-identical.)
            from repro.check import SerializabilityChecker

            ser = SerializabilityChecker(recorder.events, mode="ssi").check()
            report.anomalies.extend(str(a) for a in ser.anomalies)
        report.invariant_violations = [
            f"{v['kind']} [{v['subject']}] at t={v['t']}: {v['detail']}"
            for v in monitor.violations
        ]
        report.oracle = {
            "checker": check.counters,
            "history_events": len(recorder),
            "monitor_samples": monitor.samples,
            "ledger_outcomes": ledger.outcome_counts(),
        }
        if s.isolation == "ssi":
            report.oracle["serializability"] = ser.counters
        if history_path is not None:
            if s.isolation == "ssi":
                recorder.write(history_path, seed=seed, isolation="ssi")
            else:
                recorder.write(history_path, seed=seed)
        note(
            f"oracle: {len(recorder)} events, "
            f"{len(report.anomalies)} anomalies, "
            f"{len(report.invariant_violations)} invariant violations"
        )

    report.metrics = cluster.metrics_snapshot()
    report.events = cluster.kernel.event_count
    note(
        f"audit: {report.acknowledged} acknowledged, "
        f"{len(report.violations)} violations"
    )
    return report


def preload_value_fn(n_rows: int):
    """The expected version-0 value for the preloaded benchmark table
    (``SimCluster.preload`` loads ``init-{i}`` for every row)."""

    def initial_value(table: str, row: str, column: str):
        if table != TABLE or column != "f" or not row.startswith("user"):
            return None
        try:
            i = int(row[4:])
        except ValueError:
            return None
        return f"init-{i}" if 0 <= i < n_rows else None

    return initial_value


def run_sweep(
    seeds,
    settings: Optional[ChaosSettings] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> List[ChaosReport]:
    """Run :func:`run_chaos` for each seed; returns all reports."""
    reports = []
    for seed in seeds:
        report = run_chaos(seed, settings=settings)
        if progress is not None:
            progress(report.summary())
        reports.append(report)
    return reports
