"""Serializable SSI mode: divergence from SI, chaos sweep, byte-identity.

Three property families pin the new ``txn.isolation="ssi"`` mode:

* **Divergence** -- the classic write-skew interleaving (two txns read
  {x, y} at the same snapshot, each writes the key the other read) is
  run twice: under SI both commits succeed and the recorded history's
  serialization graph carries an rw-rw cycle; under SSI the second
  committer aborts at certification and the history is acyclic.  Both
  the single-TM and the sharded-TM (authority-RPC) certification paths
  are covered.

* **Chaos** -- a 20-seed sweep of randomised cross-shard workloads under
  SSI with a TM-shard crash triggered mid-certification (rotating the
  prepare / decide / fanout stages, so the authority holding the SSI
  window is among the victims), asserting zero lost commits, zero SI
  anomalies, zero serializability cycles, zero invariant violations,
  and full convergence.

* **Byte-identity** -- ``txn.isolation="si"`` (explicit or default)
  produces byte-identical canonical history exports with no ``reads``
  fields on the wire: the SSI machinery must be invisible until opted
  into.
"""

import pytest

from repro.check import SerializabilityChecker, SIChecker
from repro.cluster import TABLE, SimCluster
from repro.config import ClusterConfig
from repro.errors import TxnConflict
from repro.kvstore.keys import row_key
from repro.sim.chaos import preload_value_fn
from repro.sim.events import Interrupt
from repro.workload.verify import CommitLedger

N_ROWS = 300
STAGES = ("prepare", "decide", "fanout")


def _build(seed: int, n_shards: int, isolation: str) -> SimCluster:
    config = ClusterConfig(seed=seed)
    config.txn.tm_shards = n_shards
    config.txn.isolation = isolation
    config.workload.n_rows = N_ROWS
    config.kv.n_region_servers = 2
    config.kv.n_regions = 4
    config.kv.wal_sync_interval = 300.0
    config.recovery.client_heartbeat_interval = 0.5
    config.recovery.server_heartbeat_interval = 0.5
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


# ----------------------------------------------------------------------
# divergence: write skew commits under SI, aborts under SSI
# ----------------------------------------------------------------------
def _run_write_skew(isolation: str, n_shards: int = 1):
    """The canonical write-skew interleaving; returns (outcomes, events)."""
    cluster = _build(seed=11, n_shards=n_shards, isolation=isolation)
    recorder = cluster.attach_history_recorder()
    a = cluster.add_client("a")
    b = cluster.add_client("b")
    outcome = {}

    def scenario():
        ctx_a = yield from a.txn.begin()
        ctx_b = yield from b.txn.begin()
        # Both observe the same snapshot of {x, y} ...
        yield from a.txn.read(ctx_a, TABLE, row_key(0))
        yield from a.txn.read(ctx_a, TABLE, row_key(1))
        yield from b.txn.read(ctx_b, TABLE, row_key(0))
        yield from b.txn.read(ctx_b, TABLE, row_key(1))
        # ... and each writes the key the *other* read (disjoint
        # write-sets: first-committer-wins alone cannot object).
        a.txn.write(ctx_a, TABLE, row_key(1), "a-skew")
        b.txn.write(ctx_b, TABLE, row_key(0), "b-skew")
        try:
            yield from a.txn.commit(ctx_a)
            outcome["a"] = "committed"
        except TxnConflict:
            outcome["a"] = "aborted"
        try:
            yield from b.txn.commit(ctx_b)
            outcome["b"] = "committed"
        except TxnConflict:
            outcome["b"] = "aborted"

    cluster.run(scenario())
    return outcome, recorder.events


@pytest.mark.parametrize("n_shards", (1, 2))
def test_write_skew_commits_under_si_and_its_cycle_is_flagged(n_shards):
    outcome, events = _run_write_skew("si", n_shards=n_shards)
    assert outcome == {"a": "committed", "b": "committed"}
    # SI itself is clean (disjoint write-sets, one snapshot each) ...
    si = SIChecker(events).check()
    assert si.ok, si.anomalies
    # ... but the serialization graph has the rw-rw cycle, which the
    # strict audit flags and the Fekete-lenient si audit tolerates.
    strict = SerializabilityChecker(events, mode="ssi").check()
    assert [a.kind for a in strict.anomalies] == ["serializability_cycle"]
    lenient = SerializabilityChecker(events, mode="si").check()
    assert lenient.ok, lenient.anomalies
    assert lenient.counters["permitted_si_cycles"] == 1


@pytest.mark.parametrize("n_shards", (1, 2))
def test_write_skew_aborts_under_ssi_and_history_is_acyclic(n_shards):
    outcome, events = _run_write_skew("ssi", n_shards=n_shards)
    # The first committer wins; the second is the pivot and must abort.
    assert outcome == {"a": "committed", "b": "aborted"}
    report = SerializabilityChecker(events, mode="ssi").check()
    assert report.ok, report.anomalies
    assert report.counters["cycles"] == 0
    si = SIChecker(events).check()
    assert si.ok, si.anomalies


# ----------------------------------------------------------------------
# chaos: 20-seed SSI sweep with TM-shard crashes mid-certification
# ----------------------------------------------------------------------
def _counter(tm, name: str) -> int:
    return tm.metrics()["counters"].get(name, 0)


def _spawn_writers(cluster, ledger, n_writers=2, writes_per_txn=4,
                   reads_per_txn=3):
    writers = [cluster.add_client(f"w{i}") for i in range(n_writers)]

    def loop(handle, wid):
        rng = cluster.kernel.rng.substream(f"ssi.writer.{wid}")
        counter = 0
        try:
            while True:
                counter += 1
                # Half the writes and all the reads land in a 40-row hot
                # prefix, so rw antidependencies between concurrent
                # writers actually arise (and get certified) instead of
                # vanishing into the keyspace.
                rows = sorted(set(
                    rng.sample(range(40), 2)
                    + rng.sample(range(40, N_ROWS), writes_per_txn - 2)
                ))
                reads = sorted(rng.sample(range(40), reads_per_txn))
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


def _stage_watcher(cluster, stage: str, trace: list):
    """Crash the stage-appropriate TM shard once the stage has
    demonstrably run, then restart it after a dwell.  The ``decide``
    stage targets the authority (tm0) -- the shard holding the SSI
    window -- mid-certification."""

    def victim_ready() -> int:
        tms = cluster.tms
        if stage == "prepare":
            for i, tm in enumerate(tms[1:], start=1):
                if _counter(tm, "prepares") >= 1:
                    return i
        elif stage == "decide":
            if (
                _counter(tms[0], "decide_commits")
                + _counter(tms[0], "decide_aborts")
                >= 1
            ):
                return 0
        elif stage == "fanout":
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
    cluster = _build(seed, n_shards, "ssi")
    recorder = cluster.attach_history_recorder()
    monitor = cluster.attach_invariant_monitor()
    ledger = CommitLedger()
    writers = _spawn_writers(cluster, ledger)
    trace: list = []
    _stage_watcher(cluster, stage, trace)

    # Long enough for the stage-triggered crash (~1 s in) + 1.5 s dwell +
    # the 10 s begin-RPC timeout a writer can be stuck in when the
    # authority dies under its request, + a tail of post-restart commits.
    cluster.run_until(13.0)
    for handle in writers:
        if handle.node.alive:
            for proc in list(handle.node._procs):
                if proc.name and "writer" in proc.name:
                    proc.interrupt("test over")
    converged = _settle(cluster)
    monitor.check_once()

    si = SIChecker(
        recorder.events, initial_value=preload_value_fn(N_ROWS)
    ).check()
    ser = SerializabilityChecker(recorder.events, mode="ssi").check()
    violations = [str(v) for v in ledger.verify(cluster)]
    return {
        "acked": len(ledger),
        "converged": converged,
        "crashes": trace,
        "violations": violations,
        "anomalies": [str(a) for a in si.anomalies],
        "cycles": [str(a) for a in ser.anomalies],
        "graph": ser.counters,
        "invariant_violations": monitor.violations,
        "indoubt": sum(
            len(tm._prepared) for tm in cluster.tms
        ),
        "history": recorder.to_json(seed=seed, isolation="ssi"),
    }


SEEDS = list(range(1, 21))


@pytest.mark.slow
@pytest.mark.parametrize("seed", SEEDS)
def test_ssi_chaos_upholds_serializability(seed):
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
    assert result["cycles"] == [], f"{detail}: {result['cycles']}"
    assert result["invariant_violations"] == [], (
        f"{detail}: {result['invariant_violations']}"
    )
    assert result["indoubt"] == 0, detail
    assert result["converged"], detail
    # The certification genuinely saw read-sets (not a vacuous pass).
    assert result["graph"]["edges_rw"] + result["graph"]["edges_wr"] > 0, detail
    assert '"reads"' in result["history"], detail


def test_ssi_chaos_is_deterministic():
    first = _run_case(3, 2, "decide")
    second = _run_case(3, 2, "decide")
    assert first["history"] == second["history"]
    assert first["crashes"] == second["crashes"]


# ----------------------------------------------------------------------
# read-sets travel under SSI only
# ----------------------------------------------------------------------
def _history_for(seed: int, isolation: str) -> str:
    """Canonical history export of a crash-free workload."""
    config = ClusterConfig(seed=seed)
    config.txn.isolation = isolation
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
def test_si_history_leaks_no_read_sets(seed):
    """Under ``txn.isolation="si"`` no SSI metadata (read-sets) leaks
    into events or onto the wire."""
    assert '"reads"' not in _history_for(seed, "si")


def test_ssi_mode_ships_read_sets(seed=2):
    """The same workload under SSI does carry ``reads`` on its commit
    attempts -- the knob is live, not silently ignored."""
    assert '"reads"' in _history_for(seed, "ssi")


def test_unknown_isolation_rejected():
    config = ClusterConfig(seed=0)
    config.txn.isolation = "serializable"
    with pytest.raises(ValueError):
        SimCluster(config).start()
