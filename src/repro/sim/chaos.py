"""Randomised crash-recovery chaos harness: a run is ``(workload, plan)``.

Drives a live transactional workload against a full simulated cluster
while a seeded storm of faults plays out -- message loss, duplication,
delay spikes, slow nodes, partitions, machine crashes with later restarts,
client crashes -- then heals everything, waits for the recovery middleware
to converge, and audits the paper's guarantee: every acknowledged commit
is readable at its commit timestamp.

The storm is data: :func:`plan_storm` draws a list of :class:`Fault`
records without touching a cluster, :class:`Storm` is the one interpreter
that arms a plan against a live cluster (one method per fault kind), and
:func:`run_chaos` strings them together.  Everything derives from the
cluster seed through dedicated RNG substreams, so the same seed and
settings give an identical :class:`ChaosReport`, fault trace and fabric
counters included.  ``tests/chaos`` and ``python -m repro chaos`` sweep it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional

from repro.check import SerializabilityChecker, SIChecker
from repro.cluster import TABLE, ClientHandle, SimCluster
from repro.config import ClusterConfig
from repro.errors import TxnConflict
from repro.kvstore.keys import row_key
from repro.sim.events import Interrupt
from repro.sim.rng import SeededRng
from repro.workload.verify import CommitLedger

# -- the run's shape (simulated seconds; no caller ever varied these) ------
WARMUP = 1.0  # quiet workload before the storm starts
STORM = 8.0  # storm length: faults are drawn inside this window
CONFIRM = 5.0  # quiet period confirming the thresholds are stationary
MONITOR_INTERVAL = 0.25  # invariant-monitor sampling interval

# -- cluster and workload -------------------------------------------------
N_SERVERS, N_REGIONS, N_ROWS, N_WRITERS = 3, 6, 2_000, 3
#: Per transaction: snapshot reads first (so the SI checker has real read
#: events to audit, not a vacuous pass), then the writes.
READS_PER_TXN, WRITES_PER_TXN, THINK_TIME = 2, 5, 0.05

# -- fault intensities ----------------------------------------------------
#: Ambient fabric chaos, active for the whole storm.
FABRIC_CHAOS = dict(
    loss_probability=0.02, duplicate_probability=0.01,
    delay_spike_probability=0.005, delay_spike_factor=20.0,
)
BURST_LOSS_PROBABILITY = 0.15  # loss probability while a burst is active
DEGRADATION_FACTOR = 6.0  # largest latency multiplier drawn for a slow node
#: Ambient media faults on every datanode disk (``disk_faults`` only).
#: Corruption is rare because replicas draw damage independently: salvage
#: and repair get real work while damaging every copy of one record stays
#: negligible.  Write errors are sized to the storm's durable-write volume
#: (mostly heartbeat WAL syncs): lower, and whole sweeps pass without a hit.
#: The TM's log device stays clean -- the paper assumes reliable TM stable
#: storage (its salvage path is unit-tested instead).
AMBIENT_DISK_FAULTS = dict(
    write_error_probability=0.05, lost_fsync_probability=0.02,
    corruption_probability=0.001, torn_write_probability=0.6,
)
#: One device's rates during an acute disk storm.  High on purpose: the
#: *other* replica stays at the ambient rate, so double damage is improbable.
ACUTE_DISK_FAULTS = dict(corruption_probability=0.05, lost_fsync_probability=0.25)


@dataclass(frozen=True)
class ChaosSettings:
    """The four choices a chaos run offers; the rest is constants above."""

    #: Ambient media faults on every datanode disk (transient write errors,
    #: lying fsyncs, latent corruption, torn final writes on crash) plus one
    #: acute per-device disk storm.
    disk_faults: bool = False
    #: One second crash *inside* a recovery window, at a live server hosting
    #: a pending recovery partition: the cascading failover must re-partition
    #: only the orphans, the pin must transfer keeping the lower T_P, and
    #: the replay must stay idempotent across the repeated passes.
    kill_during_recovery: bool = False
    #: ``txn.tm_shards``.  With more than one, the storm also crashes one
    #: drawn shard and restarts it after a dwell: transactions prepared there
    #: must abort cleanly or complete via the decision registry, and
    #: convergence requires every shard up with nothing left in doubt.
    tm_shards: int = 1
    #: ``txn.isolation``: under "ssi" the oracle additionally requires the
    #: recorded history's serialization graph to be fully acyclic.
    isolation: str = "si"

    @property
    def settle(self) -> float:
        """Convergence budget after the storm (polled, not waited out):
        longer when a second failover or a TM shard's restart is owed."""
        return 60.0 if self.kill_during_recovery or self.tm_shards > 1 else 45.0


@dataclass(frozen=True)
class Fault:
    """One planned fault: at instant ``at`` call :class:`Storm`'s method
    ``kind`` with ``args``.  Plain data: a plan survives a JSON round trip."""

    at: float
    kind: str
    args: dict = field(default_factory=dict)


def plan_storm(
    settings: ChaosSettings, rng: SeededRng, start: float, degradable_addrs: List[str]
) -> List[Fault]:
    """Draw one storm as data; touches no cluster.

    Instants are absolute (the window opens at ``start + WARMUP``);
    ``degradable_addrs`` are the nodes a degradation may slow.  The draw
    order is the reproducibility contract of every recorded seed; optional
    draws come last, so the disk plan is the plain plan plus one entry.
    """
    t0 = start + WARMUP
    storm_end = t0 + STORM
    plan: List[Fault] = []

    def draw_at(margin: float) -> float:
        return rng.uniform(t0 + 0.2, storm_end - margin)

    def add(at: float, kind: str, **args) -> None:
        plan.append(Fault(at, kind, args))

    add(t0, "storm_on")
    at, dwell, i = draw_at(3.0), rng.uniform(2.0, 3.5), rng.randrange(N_SERVERS)
    add(at, "crash_machine", i=i)
    add(at + dwell, "restart_machine", i=i)
    at, i = draw_at(2.0), rng.randrange(N_WRITERS)
    add(at, "crash_client", i=i)
    at, dwell = draw_at(3.0), rng.uniform(1.5, 2.5)
    if rng.random() < 0.5:
        add(at, "partition_client", i=rng.randrange(N_WRITERS), dwell=dwell)
    else:
        add(at, "partition_server", i=rng.randrange(N_SERVERS), dwell=dwell)
    at, dwell = draw_at(1.5), rng.uniform(0.5, 1.5)
    add(at, "loss_burst", dwell=dwell)
    at, dwell, addr = draw_at(1.0), rng.uniform(1.0, 2.5), rng.choice(degradable_addrs)
    factor = rng.uniform(2.0, DEGRADATION_FACTOR)
    add(at, "degrade_node", addr=addr, factor=factor, dwell=dwell)
    if settings.disk_faults:
        at, dwell, i = draw_at(1.5), rng.uniform(1.0, 2.5), rng.randrange(N_SERVERS)
        add(at, "disk_fault_storm", i=i, dwell=dwell)
    if settings.tm_shards > 1:
        at, dwell = draw_at(3.0), rng.uniform(1.5, 3.0)
        i = rng.randrange(settings.tm_shards)
        add(at, "crash_tm_shard", i=i)
        add(at + dwell, "restart_tm_shard", i=i)
    return plan


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
    storage: dict = field(default_factory=dict)
    #: Full unified snapshot (:meth:`SimCluster.metrics_snapshot`): every
    #: component registry plus commit-path span summaries, with the
    #: abandoned spans of each stage under ``truncated``.
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
            f"anomalies={len(self.anomalies)} inv={len(self.invariant_violations)} "
            f"converged={self.converged} lost={self.net.get('messages_lost', 0)} "
            f"dup={self.net.get('messages_duplicated', 0)} "
            f"retries={self.net.get('rpc_retries', 0)}"
        )
        disks = self.storage.get("disks", {}).values()
        injected = [
            sum(d.get(kind, 0) for d in disks)
            for kind in ("write_errors", "lost_fsyncs", "corruptions", "torn_writes")
        ]
        if any(injected):
            integrity = self.storage.get("integrity", {})
            line += " werr={} liedfsync={} rot={} torn={}".format(*injected) + (
                f" repaired={integrity.get('records_repaired', 0)}"
                f" salvages={integrity.get('salvages', 0)}"
            )
        return line


def build_chaos_cluster(seed: int, settings: ChaosSettings) -> SimCluster:
    """A cluster tuned so the store alone would lose data on failure: the
    WAL group-sync interval is huge (as in the recovery test suites), so
    durability across crashes rests entirely on the recovery middleware."""
    config = ClusterConfig(seed=seed)
    config.kv.n_region_servers = N_SERVERS
    config.kv.n_regions = N_REGIONS
    config.txn.tm_shards = settings.tm_shards
    config.txn.isolation = settings.isolation
    config.kv.wal_sync_interval = 300.0
    config.workload.n_rows = N_ROWS
    config.recovery.client_heartbeat_interval = 0.5
    config.recovery.server_heartbeat_interval = 0.5
    config.zk.session_timeout = 1.0
    config.zk.tick_interval = 0.2
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


class Storm:
    """The one fault interpreter: arms a plan against a live cluster.

    One public method per fault kind, each with its own guard: a planned
    fault whose victim is already down (self-fenced on session expiry,
    mid-restart) is skipped silently, so the trace (``note``) records what
    was injected, not what was planned.  Three reactive processes no plan
    can hold run beside it: a restarting machine's bring-up retries, the
    kill-during-recovery watcher, and the post-storm janitor.
    """

    def __init__(
        self, cluster: SimCluster, settings: ChaosSettings, rng: SeededRng,
        writers: List[ClientHandle], note: Callable[[str], None],
    ) -> None:
        self.cluster = cluster
        self.settings = settings
        self.rng = rng
        self.writers = writers
        self.note = note
        self.restarting: set = set()  # machines whose bring-up is in flight

    def arm(self, plan: List[Fault], start: float) -> None:
        """Schedule each fault ``fault.at - start`` from now (``start`` is
        the plan's time origin) and start the recovery watcher if owed."""
        for fault in plan:
            action = partial(getattr(self, fault.kind), **fault.args)
            self.cluster.after(fault.at - start, action)
        if self.settings.kill_during_recovery:
            self.cluster.kernel.process(self._recovery_killer()).defuse()

    # -- the vocabulary ---------------------------------------------------
    def storm_on(self) -> None:
        """Turn on the ambient fabric chaos (and, if asked, media faults)."""
        self.cluster.net.configure_chaos(**FABRIC_CHAOS)
        self.note(
            "storm on: loss={loss_probability} dup={duplicate_probability} "
            "spike={delay_spike_probability}".format(**FABRIC_CHAOS)
        )
        if self.settings.disk_faults:
            for dn in self.cluster.datanodes:
                dn.disk.configure_faults(**AMBIENT_DISK_FAULTS)
            self.note(
                "disk faults on: werr={write_error_probability} "
                "liedfsync={lost_fsync_probability} rot={corruption_probability} "
                "torn={torn_write_probability}".format(**AMBIENT_DISK_FAULTS)
            )

    def disk_fault_storm(self, i: int, dwell: float) -> None:
        """Datanode ``i``'s disk runs at the acute rates for ``dwell``."""
        disk = self.cluster.datanodes[i].disk
        self.note(
            "disk storm on {}: rot={corruption_probability} "
            "liedfsync={lost_fsync_probability} for {:.2f}s".format(
                disk.name, dwell, **ACUTE_DISK_FAULTS
            )
        )
        disk.configure_faults(**ACUTE_DISK_FAULTS)

        def calm() -> None:
            self.note(f"disk storm over on {disk.name}")
            disk.configure_faults(**AMBIENT_DISK_FAULTS)

        self.cluster.after(dwell, calm)

    def crash_machine(self, i: int) -> None:
        """Crash region server ``i`` with its datanode, unless already down."""
        rs = self.cluster.servers[i]
        if rs.alive and i not in self.restarting:
            self.note(f"crash machine {rs.addr}+{self.cluster.datanodes[i].addr}")
            self.cluster.crash_server(i)

    def restart_machine(self, i: int) -> None:
        """Bring machine ``i`` back, unless it is up or already coming up."""
        rs = self.cluster.servers[i]
        if rs.alive or i in self.restarting:
            return
        self.restarting.add(i)
        self.note(f"restart machine {rs.addr}")
        if not self.cluster.datanodes[i].alive:
            self.cluster.datanodes[i].revive()
        self.cluster.kernel.process(self._bring_up(i)).defuse()

    def _bring_up(self, i: int):
        # A restarted server re-registers under the same address, so wait
        # until the master has *observed* the death (dropped the address from
        # its live set) -- otherwise the re-appearing ephemeral masks the
        # death and its regions are never reassigned.  Once observed, the
        # failover is queued and excludes the old incarnation by name, so
        # re-registering is safe -- and necessary: if every server is down,
        # the pending failovers are themselves waiting for one to register.
        rs = self.cluster.servers[i]
        while rs.addr in self.cluster.master._live_servers:
            yield self.cluster.kernel.timeout(0.25)
        try:
            # Mid-storm the bring-up itself can lose messages (session open,
            # WAL create, ephemeral registration); retry until the server is
            # genuinely back rather than leaving it half-started.  ``restart``
            # no-ops once revived, so the retry path finishes with ``start``.
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
                    yield self.cluster.kernel.timeout(1.0)
        finally:
            self.restarting.discard(i)

    def crash_tm_shard(self, i: int) -> None:
        """Crash TM shard ``i``, unless already down."""
        tm = self.cluster.tms[i]
        if tm.alive:
            self.note(f"crash tm shard {tm.addr}")
            self.cluster.crash_tm_shard(i)

    def restart_tm_shard(self, i: int) -> None:
        """Revive TM shard ``i`` and run its recovery, unless it is up."""
        tm = self.cluster.tms[i]
        if not tm.alive:
            self.note(f"restart tm shard {tm.addr}")
            self.cluster.restart_tm_shard(i)

    def crash_client(self, i: int) -> None:
        """Crash writer ``i``'s machine (for good), unless already dead."""
        node = self.writers[i].node
        if node.alive:
            self.note(f"crash client {node.addr}")
            node.crash()

    def partition_client(self, i: int, dwell: float) -> None:
        """Cut live writer ``i`` off from everyone; heal after ``dwell``."""
        node = self.writers[i].node
        if not node.alive:
            return
        others = [n for n in self.cluster.net.nodes if n != node.addr]
        self.note(f"partition client {node.addr} for {dwell:.2f}s")
        self.cluster.net.partition([node.addr], others)
        self.cluster.after(dwell, self.heal_all)

    def partition_server(self, i: int, dwell: float) -> None:
        """Cut live machine ``i`` off; after ``dwell`` fence, heal, restart."""
        rs = self.cluster.servers[i]
        if not rs.alive or i in self.restarting:
            return
        island = [rs.addr, self.cluster.datanodes[i].addr]
        others = [n for n in self.cluster.net.nodes if n not in island]
        self.note(f"partition server {rs.addr} for {dwell:.2f}s")
        self.cluster.net.partition(island, others)

        def heal_and_fence() -> None:
            # A partitioned server is treated as crashed (Section 3.1): its
            # session expired and its regions failed over, so fence the
            # zombie before healing -- the real store's self-abort on
            # session expiry -- and bring it back as a fresh incarnation.
            if rs.alive:
                self.note(f"fence zombie {rs.addr}")
                self.cluster.crash_server(i)
            self.heal_all()
            self.restart_machine(i)

        self.cluster.after(dwell, heal_and_fence)

    def heal_all(self) -> None:
        """Heal every partition."""
        self.note("heal partitions")
        self.cluster.net.heal()

    def loss_burst(self, dwell: float) -> None:
        """Raise the fabric's loss rate to the burst rate for ``dwell``."""
        self.note(f"loss burst {BURST_LOSS_PROBABILITY} for {dwell:.2f}s")
        self.cluster.net.configure_chaos(loss_probability=BURST_LOSS_PROBABILITY)

        def end_burst() -> None:
            self.note("loss burst over")
            self.cluster.net.configure_chaos(
                loss_probability=FABRIC_CHAOS["loss_probability"]
            )

        self.cluster.after(dwell, end_burst)

    def degrade_node(self, addr: str, factor: float, dwell: float) -> None:
        """Slow every link touching ``addr`` by ``factor`` for ``dwell``."""
        self.note(f"degrade {addr} x{factor:.1f} for {dwell:.2f}s")
        self.cluster.net.degrade(addr, factor)
        self.cluster.after(dwell, lambda: self.cluster.net.restore(addr))

    # -- reactive processes -----------------------------------------------
    def _recovery_killer(self):
        # Crashes a *recipient* of an in-flight recovery plan: whenever the
        # recovery manager holds pinned regions, the servers those regions are
        # assigned to are mid-replay -- killing one forces the cascading
        # failover to re-partition the orphaned work.  Victim and dwell are
        # drawn at run time from the plan's own substream, so the whole plan
        # must have been drawn before this process takes its first step.
        cluster = self.cluster
        while True:
            yield cluster.kernel.timeout(0.25)
            pending = cluster.rm.pending_regions
            if not pending:
                continue
            hosts = {cluster.master.assignments.get(r) for r in pending}
            victims = [
                i
                for i, rs in enumerate(cluster.servers)
                if rs.addr in hosts and rs.alive and i not in self.restarting
            ]
            if not victims:
                continue
            victim = victims[self.rng.randrange(len(victims))]
            self.note(
                f"kill during recovery: {cluster.servers[victim].addr} "
                f"(pending={sorted(pending)})"
            )
            self.crash_machine(victim)
            dwell = self.rng.uniform(2.0, 3.5)
            cluster.after(dwell, partial(self.restart_machine, victim))
            return

    def _janitor(self):
        # Servers can still die *after* the storm: one whose coordination
        # session expired mid-storm self-fences only when its next ping finds
        # out.  Restart whatever falls over so the cluster can converge.
        while True:
            yield self.cluster.kernel.timeout(1.0)
            for i, rs in enumerate(self.cluster.servers):
                if not rs.alive and i not in self.restarting:
                    self.note(f"janitor: restart {rs.addr}")
                    self.restart_machine(i)

    def calm(self) -> None:
        """Stop injecting, heal, restart what is down, start the janitor."""
        cluster = self.cluster
        cluster.net.configure_chaos(
            loss_probability=0.0, duplicate_probability=0.0, delay_spike_probability=0.0
        )
        cluster.net.heal()
        cluster.net.restore()
        if self.settings.disk_faults:
            # Media stop *acquiring* new faults; everything already torn or
            # rotted stays on the platters for recovery to salvage.
            for dn in cluster.datanodes:
                dn.disk.configure_faults(**dict.fromkeys(AMBIENT_DISK_FAULTS, 0.0))
            self.note("disk faults off: media calm, damage persists")
        self.note("storm off: fabric clean")
        for i, rs in enumerate(cluster.servers):
            if not rs.alive:
                self.restart_machine(i)
        for i, tm in enumerate(cluster.tms):
            if not tm.alive:
                self.restart_tm_shard(i)
        cluster.kernel.process(self._janitor()).defuse()


def writer_loop(
    handle: ClientHandle, wid: str, report: ChaosReport, ledger: CommitLedger
):
    """One chaos writer: read-then-write transactions until interrupted,
    every acknowledged commit recorded in ``ledger``."""
    wrng = handle.node.kernel.rng.substream(f"chaos.writer.{wid}")
    counter = 0
    try:
        while True:
            counter += 1
            rows = sorted(wrng.sample(range(N_ROWS), WRITES_PER_TXN))
            reads = sorted(wrng.sample(range(N_ROWS), READS_PER_TXN))
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
            yield handle.node.sleep(wrng.uniform(0.5, 1.5) * THINK_TIME)
    except Interrupt:
        return


def _settled(cluster: SimCluster, rm_st: dict, cl_st: dict) -> bool:
    return (
        rm_st["global_tp"] == rm_st["global_tf"]
        and not rm_st["pending_regions"]
        and not rm_st["recovering"]
        and all(cl_st["online"].values())
        and all(rs.alive for rs in cluster.servers)
        # Sharded TM: every shard up, nothing in doubt (a stuck prepare would
        # also freeze T_F, its reservation aborting the key's writers).
        and all(tm.alive for tm in cluster.tms)
        and not any(tm._prepared for tm in cluster.tms)
    )


def converge(cluster: SimCluster, report: ChaosReport, settle: float) -> bool:
    """Wait up to ``settle`` seconds for the middleware's fixed point;
    records the verdict and the final thresholds in ``report``.

    Polls rather than sampling once: recovery time varies with how the
    storm landed (serialised failovers, retried fetches), so a fixed
    instant would misread a slow-but-correct run as wedged.  A settled-
    looking sample is then held for the confirm window: the thresholds
    ratchet (T_P up -> client thresholds up -> T_F up) in heartbeat hops,
    so the first T_P == T_F moment need not be the fixed point; if the
    window catches movement, polling resumes until the budget runs out.
    (The status calls are RPCs: their order is part of every seed.)
    """
    deadline = cluster.kernel.now + settle
    while True:
        while cluster.kernel.now < deadline:
            cluster.run_until(min(deadline, cluster.kernel.now + 1.0))
            if _settled(cluster, cluster.rm_status(), cluster.cluster_status()):
                break
        rm_a = cluster.rm_status()
        cluster.run_until(cluster.kernel.now + CONFIRM)
        rm_b = cluster.rm_status()
        report.global_tf, report.global_tp = rm_b["global_tf"], rm_b["global_tp"]
        report.converged = rm_b["global_tf"] == rm_a["global_tf"] and _settled(
            cluster, rm_b, cluster.cluster_status()
        )
        if report.converged or cluster.kernel.now >= deadline:
            return report.converged


def run_chaos(
    seed: int,
    settings: Optional[ChaosSettings] = None,
    progress: Optional[Callable[[str], None]] = None,
    history_path: Optional[str] = None,
) -> ChaosReport:
    """One full chaos run: storm, heal, converge, audit.

    Deterministic in ``(seed, settings)``; ``progress`` (if given) receives
    the trace lines the report collects, as they happen.  The run records
    the full operation history, checks it for snapshot-isolation anomalies
    (under SSI also for serialization-graph cycles) and monitors the
    threshold invariants online; ``history_path`` saves the history file
    for ``repro check`` replay.
    """
    s = settings or ChaosSettings()
    cluster = build_chaos_cluster(seed, s)
    rng = cluster.kernel.rng.substream("chaos.harness")
    report = ChaosReport(seed=seed)
    recorder = cluster.attach_history_recorder()
    monitor = cluster.attach_invariant_monitor(interval=MONITOR_INTERVAL)

    def note(msg: str) -> None:
        line = f"{cluster.kernel.now:9.4f}  {msg}"
        report.trace.append(line)
        if progress is not None:
            progress(line)

    # -- workload ---------------------------------------------------------
    ledger = CommitLedger()
    writers = [cluster.add_client(f"w{i}") for i in range(N_WRITERS)]
    loops = [
        h.node.spawn(writer_loop(h, f"w{i}", report, ledger), name=f"writer{i}")
        for i, h in enumerate(writers)
    ]
    for loop in loops:
        loop.defuse()

    # -- storm: plan, arm, run, calm --------------------------------------
    start = cluster.kernel.now
    degradable = [n.addr for n in cluster.servers + cluster.tms] + ["zk"]
    storm = Storm(cluster, s, rng, writers, note)
    storm.arm(plan_storm(s, rng, start, degradable), start)
    cluster.run_until(start + WARMUP + STORM)
    storm.calm()
    cluster.run_until(cluster.kernel.now + 2.0)
    for loop in loops:
        loop.interrupt("chaos harness stop")  # a no-op on a crashed writer's
    note("writers stopped")

    # -- convergence ------------------------------------------------------
    converge(cluster, report, s.settle)
    note(f"converged={report.converged} tf={report.global_tf} tp={report.global_tp}")

    # -- audit ------------------------------------------------------------
    report.acknowledged = len(ledger)
    try:
        report.violations = [str(v) for v in ledger.verify(cluster)]
    except Exception as exc:  # a wedged cluster: report, don't explode
        report.violations = [f"audit aborted: {exc!r}"]
    report.net = dict(cluster.net.metrics()["counters"])
    report.storage = cluster.storage_stats()
    monitor.check_once()  # one final sample of the converged state
    check = SIChecker(recorder.events, initial_value=preload_value_fn(N_ROWS)).check()
    report.anomalies = [str(a) for a in check.anomalies]
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
    # Only SSI is stamped and audited for full serializability (an acyclic
    # direct serialization graph); SI output keeps its pre-SSI format.
    meta = {}
    if s.isolation == "ssi":
        ser = SerializabilityChecker(recorder.events, mode="ssi").check()
        report.anomalies.extend(str(a) for a in ser.anomalies)
        report.oracle["serializability"] = ser.counters
        meta["isolation"] = "ssi"
    if history_path is not None:
        recorder.write(history_path, seed=seed, **meta)
    note(
        f"oracle: {len(recorder)} events, "
        f"{len(report.anomalies)} anomalies, "
        f"{len(report.invariant_violations)} invariant violations"
    )
    report.metrics = cluster.metrics_snapshot()
    report.events = cluster.kernel.event_count
    cluster.kernel.raise_for_bugs()
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
