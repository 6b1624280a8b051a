"""Randomised cross-shard workloads against the sharded TM.

Each case drives two concurrent writers over a keyspace whose rows hash
across every TM shard (so most multi-row transactions are cross-shard),
injects a TM-shard crash *triggered by a specific commit stage* --
prepare recorded at a participant, decision registered at the authority,
decision fan-out applied -- restarts the shard, lets the middleware
converge, and audits the full contract:

* every acknowledged commit durably readable (zero ledger violations);
* zero snapshot-isolation anomalies, including ``cross_shard_atomicity``
  (the offline checker sees the per-write ``owners`` metadata);
* zero online threshold-invariant violations (every shard's log
  truncation included);
* no transaction left permanently in-doubt (convergence requires every
  shard's prepare journal drained).

The sweep rotates seeds through shard counts {2, 4} and the three crash
stages; shard count 1 is covered by the determinism tests below, which
pin the bit-for-bit guarantee: a ``tm_shards=1`` cluster produces the
same canonical history export as the default (pre-sharding) single-TM
configuration, with no sharded fields leaking into events.
"""

import pytest

from repro.cluster import TABLE, SimCluster
from repro.config import ClusterConfig
from repro.errors import TxnConflict
from repro.kvstore.keys import row_key
from repro.sim.chaos import preload_value_fn
from repro.sim.events import Interrupt
from repro.workload.verify import CommitLedger

N_ROWS = 300
STAGES = ("prepare", "decide", "fanout")


def _build(seed: int, n_shards: int) -> SimCluster:
    config = ClusterConfig(seed=seed)
    config.txn.tm_shards = n_shards
    config.workload.n_rows = N_ROWS
    config.kv.n_region_servers = 2
    config.kv.n_regions = 4
    # The store alone would lose data on failure: durability across the
    # shard crash rests entirely on the recovery middleware.
    config.kv.wal_sync_interval = 300.0
    config.recovery.client_heartbeat_interval = 0.5
    config.recovery.server_heartbeat_interval = 0.5
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def _counter(tm, name: str) -> int:
    return tm.metrics()["counters"].get(name, 0)


def _spawn_writers(cluster, ledger, n_writers=2, writes_per_txn=4):
    writers = [cluster.add_client(f"w{i}") for i in range(n_writers)]

    def loop(handle, wid):
        rng = cluster.kernel.rng.substream(f"sharded.writer.{wid}")
        counter = 0
        try:
            while True:
                counter += 1
                rows = sorted(rng.sample(range(N_ROWS), writes_per_txn))
                ctx = None
                try:
                    ctx = yield from handle.txn.begin()
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


def _stage_watcher(cluster, stage: str, trace: list):
    """Crash the stage-appropriate TM shard the moment the stage has
    demonstrably run at least once, then restart it after a dwell."""

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


def _settle(cluster, budget: float = 30.0) -> bool:
    deadline = cluster.kernel.now + budget
    while cluster.kernel.now < deadline:
        cluster.run_until(cluster.kernel.now + 1.0)
        rm = cluster.rm_status()
        if (
            rm["global_tp"] == rm["global_tf"]
            and rm["global_tf"] > 0
            and not rm["recovering"]
            and all(tm.alive for tm in cluster.tms)
            and not any(
                tm._prepared for tm in cluster.tms
            )
        ):
            return True
    return False


def _run_case(seed: int, n_shards: int, stage: str) -> dict:
    cluster = _build(seed, n_shards)
    recorder = cluster.attach_history_recorder()
    monitor = cluster.attach_invariant_monitor()
    ledger = CommitLedger()
    writers = _spawn_writers(cluster, ledger)
    trace: list = []
    _stage_watcher(cluster, stage, trace)

    # Long enough for crash (stage-triggered, ~1 s in) + 1.5 s dwell +
    # the 5 s sharded commit timeout + a post-restart retry, so every
    # writer commits again after the shard comes back (an idle writer
    # would pin its T_F(c), and with it global T_F, at zero).
    cluster.run_until(10.0)
    for handle in writers:
        if handle.node.alive:
            for proc in list(handle.node._procs):
                if proc.name and "writer" in proc.name:
                    proc.interrupt("test over")
    converged = _settle(cluster)
    monitor.check_once()

    from repro.check import SIChecker

    check = SIChecker(
        recorder.events, initial_value=preload_value_fn(N_ROWS)
    ).check()
    violations = [str(v) for v in ledger.verify(cluster)]
    return {
        "acked": len(ledger),
        "converged": converged,
        "crashes": trace,
        "violations": violations,
        "anomalies": [str(a) for a in check.anomalies],
        "cross_shard_txns": check.counters.get("cross_shard_txns"),
        "invariant_violations": monitor.violations,
        "indoubt": sum(
            len(tm._prepared) for tm in cluster.tms
        ),
        "history": recorder.to_json(seed=seed),
    }


#: Each seed is one storm; shard count and crash stage rotate so the
#: sweep covers every (shards, stage) combination several times over.
SEEDS = list(range(1, 21))


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_sharded_commit_upholds_contract(seed):
    n_shards = (2, 4)[seed % 2]
    stage = STAGES[seed % 3]
    result = _run_case(seed, n_shards, stage)
    detail = (
        f"seed={seed} shards={n_shards} stage={stage} "
        f"acked={result['acked']} crashes={result['crashes']}"
    )
    assert result["acked"] > 0, detail
    assert result["violations"] == [], f"{detail}: {result['violations']}"
    assert result["anomalies"] == [], f"{detail}: {result['anomalies']}"
    assert result["invariant_violations"] == [], (
        f"{detail}: {result['invariant_violations']}"
    )
    assert result["indoubt"] == 0, detail
    assert result["converged"], detail
    # The workload genuinely exercised cross-shard commits.
    assert result["cross_shard_txns"] > 0, detail


def test_crash_stages_actually_trigger():
    """Every stage watcher fires (the crash is real, not a no-op)."""
    for seed, stage in zip((5, 6, 7), STAGES):
        result = _run_case(seed, 2, stage)
        assert result["crashes"], f"stage {stage} never triggered"
        assert result["crashes"][0][1] == stage


def test_same_seed_same_shards_reproduces_history():
    first = _run_case(3, 2, "decide")
    second = _run_case(3, 2, "decide")
    assert first["history"] == second["history"]
    assert first["crashes"] == second["crashes"]


def _history_for_single_tm(seed: int) -> str:
    """Canonical history export of a crash-free single-TM workload."""
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = N_ROWS
    config.kv.n_region_servers = 2
    config.kv.n_regions = 4
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    recorder = cluster.attach_history_recorder()
    ledger = CommitLedger()
    writers = _spawn_writers(cluster, ledger)
    cluster.run_until(3.0)
    for handle in writers:
        for proc in list(handle.node._procs):
            if proc.name and "writer" in proc.name:
                proc.interrupt("test over")
    cluster.run_until(cluster.kernel.now + 2.0)
    return recorder.to_json(seed=seed)


@pytest.mark.parametrize("seed", (2, 9))
def test_one_shard_history_leaks_no_sharded_metadata(seed):
    """A lone TM runs the same commit code as a shard, but nothing of the
    sharded bookkeeping shows in the canonical history export."""
    history = _history_for_single_tm(seed)
    assert '"owners"' not in history
