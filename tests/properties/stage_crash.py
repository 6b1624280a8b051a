"""The stage-crash harness shared by the sharded-commit and SSI suites.

One case drives two concurrent writers over a keyspace whose rows hash
across every TM shard, crashes a TM shard *the moment a specific commit
stage has demonstrably run* -- prepare recorded at a participant,
decision registered at the authority, decision fan-out applied --
restarts it after a dwell, lets the middleware converge, and audits the
run.  The two suites differ only in ``suite``:

* ``"sharded"`` -- snapshot isolation, uniform 4-row write-only
  transactions, audited by the SI checker;
* ``"ssi"`` -- serializable SSI, half the writes and three reads in a
  40-row hot prefix (so rw antidependencies between concurrent writers
  actually arise and get certified instead of vanishing into the
  keyspace), audited by the serializability checker as well.

``suite`` also names the writers' RNG substreams, so every recorded
history of either suite is reproduced bit for bit.
"""

from repro.check import SerializabilityChecker, SIChecker
from repro.cluster import TABLE, SimCluster
from repro.config import ClusterConfig
from repro.errors import TxnConflict
from repro.kvstore.keys import row_key
from repro.sim.chaos import preload_value_fn
from repro.sim.events import Interrupt
from repro.workload.verify import CommitLedger

N_ROWS = 300
HOT_ROWS = 40
N_WRITERS = 2
WRITES_PER_TXN = 4
STAGES = ("prepare", "decide", "fanout")


def build(
    seed: int, n_shards: int = 1, isolation: str = "si", fragile_store: bool = True
) -> SimCluster:
    config = ClusterConfig(seed=seed)
    config.txn.tm_shards = n_shards
    config.txn.isolation = isolation
    config.workload.n_rows = N_ROWS
    config.kv.n_region_servers = 2
    config.kv.n_regions = 4
    if fragile_store:
        # The store alone would lose data on failure: durability across the
        # shard crash rests entirely on the recovery middleware.
        config.kv.wal_sync_interval = 300.0
        config.recovery.client_heartbeat_interval = 0.5
        config.recovery.server_heartbeat_interval = 0.5
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def spawn_writers(cluster, ledger, suite: str):
    writers = [cluster.add_client(f"w{i}") for i in range(N_WRITERS)]

    def loop(handle, wid):
        rng = cluster.kernel.rng.substream(f"{suite}.writer.{wid}")
        counter = 0
        try:
            while True:
                counter += 1
                if suite == "ssi":
                    rows = sorted(set(
                        rng.sample(range(HOT_ROWS), 2)
                        + rng.sample(range(HOT_ROWS, N_ROWS), WRITES_PER_TXN - 2)
                    ))
                    reads = sorted(rng.sample(range(HOT_ROWS), 3))
                else:
                    rows = sorted(rng.sample(range(N_ROWS), WRITES_PER_TXN))
                    reads = []
                ctx = None
                try:
                    ctx = yield from handle.txn.begin()
                    for i in reads:
                        yield from handle.txn.read(ctx, TABLE, row_key(i))
                    for i in rows:
                        handle.txn.write(
                            ctx, TABLE, row_key(i), f"{wid}.{counter}"
                        )
                    yield from handle.txn.commit(ctx)
                    ledger.record(ctx, TABLE)
                except Interrupt:
                    raise
                except TxnConflict:
                    ledger.record_outcome(ctx)
                except Exception:
                    pass  # unacknowledged: no durability claim to audit
                yield handle.node.sleep(rng.uniform(0.02, 0.06))
        except Interrupt:
            return

    for i, handle in enumerate(writers):
        proc = handle.node.spawn(loop(handle, f"w{i}"), name=f"writer{i}")
        proc.defuse()
    return writers


def stop_writers(writers) -> None:
    for handle in writers:
        if handle.node.alive:
            for proc in list(handle.node._procs):
                if proc.name and "writer" in proc.name:
                    proc.interrupt("test over")


def _counter(tm, name: str) -> int:
    return tm.metrics()["counters"].get(name, 0)


def stage_watcher(cluster, stage: str, trace: list):
    """Crash the stage-appropriate TM shard the moment the stage has
    demonstrably run at least once, then restart it after a dwell.  The
    ``decide`` stage targets the authority (tm0) -- under SSI the shard
    holding the certification window."""

    def victim_ready() -> int:
        tms = cluster.tms
        if stage == "prepare":
            # A participant holds a durable prepare record.
            for i, tm in enumerate(tms[1:], start=1):
                if _counter(tm, "prepares") >= 1:
                    return i
        elif stage == "decide":
            # The authority registered a cross-shard decision.
            if (
                _counter(tms[0], "decide_commits")
                + _counter(tms[0], "decide_aborts")
                >= 1
            ):
                return 0
        elif stage == "fanout":
            # A participant applied a fanned-out decision.
            for i, tm in enumerate(tms[1:], start=1):
                if _counter(tm, "decisions_applied") >= 1:
                    return i
        return -1

    def watcher():
        try:
            while True:
                yield cluster.kernel.timeout(0.05)
                victim = victim_ready()
                if victim < 0:
                    continue
                trace.append((round(cluster.kernel.now, 6), stage, victim))
                cluster.crash_tm_shard(victim)
                yield cluster.kernel.timeout(1.5)
                cluster.restart_tm_shard(victim)
                return
        except Interrupt:
            return

    proc = cluster.kernel.process(watcher())
    proc.defuse()


def settle(cluster, budget: float = 30.0) -> bool:
    deadline = cluster.kernel.now + budget
    while cluster.kernel.now < deadline:
        cluster.run_until(cluster.kernel.now + 1.0)
        rm = cluster.rm_status()
        if (
            rm["global_tp"] == rm["global_tf"]
            and rm["global_tf"] > 0
            and not rm["recovering"]
            and all(tm.alive for tm in cluster.tms)
            and not any(tm._prepared for tm in cluster.tms)
        ):
            return True
    return False


def run_case(seed: int, n_shards: int, stage: str, suite: str) -> dict:
    """One stage-crash case; returns the audit (and the canonical history)."""
    ssi = suite == "ssi"
    meta = {"isolation": "ssi"} if ssi else {}
    cluster = build(seed, n_shards, **meta)
    recorder = cluster.attach_history_recorder()
    monitor = cluster.attach_invariant_monitor()
    ledger = CommitLedger()
    writers = spawn_writers(cluster, ledger, suite)
    trace: list = []
    stage_watcher(cluster, stage, trace)

    # Long enough for the stage-triggered crash (~1 s in) + 1.5 s dwell +
    # the 5 s sharded commit timeout + a post-restart retry, so every
    # writer commits again after the shard comes back (an idle writer
    # would pin its T_F(c), and with it global T_F, at zero).  The SSI
    # suite also covers the 10 s begin-RPC timeout a writer can be stuck
    # in when the authority dies under its request.
    cluster.run_until(13.0 if ssi else 10.0)
    stop_writers(writers)
    converged = settle(cluster)
    monitor.check_once()

    si = SIChecker(recorder.events, initial_value=preload_value_fn(N_ROWS)).check()
    ser = SerializabilityChecker(recorder.events, mode="ssi").check() if ssi else None
    violations = [str(v) for v in ledger.verify(cluster)]
    result = {
        "acked": len(ledger),
        "converged": converged,
        "crashes": trace,
        "violations": violations,
        "anomalies": [str(a) for a in si.anomalies],
        "cross_shard_txns": si.counters.get("cross_shard_txns"),
        "invariant_violations": monitor.violations,
        "indoubt": sum(len(tm._prepared) for tm in cluster.tms),
        "history": recorder.to_json(seed=seed, **meta),
    }
    if ser is not None:
        result["cycles"] = [str(a) for a in ser.anomalies]
        result["graph"] = ser.counters
    return result


def crash_free_history(seed: int, suite: str, isolation: str = "si") -> str:
    """Canonical history export of a crash-free default-store workload."""
    cluster = build(seed, isolation=isolation, fragile_store=False)
    recorder = cluster.attach_history_recorder()
    writers = spawn_writers(cluster, CommitLedger(), suite)
    cluster.run_until(3.0)
    stop_writers(writers)
    cluster.run_until(cluster.kernel.now + 2.0)
    return recorder.to_json(seed=seed)
