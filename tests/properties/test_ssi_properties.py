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

from functools import partial

import pytest

from repro.check import SerializabilityChecker, SIChecker
from repro.cluster import TABLE, SimCluster
from repro.config import ClusterConfig
from repro.errors import TxnConflict
from repro.kvstore.keys import row_key
from tests.properties.stage_crash import STAGES, build, crash_free_history, run_case

_run_case = partial(run_case, suite="ssi")
_history_for = partial(crash_free_history, suite="ssi")


# ----------------------------------------------------------------------
# divergence: write skew commits under SI, aborts under SSI
# ----------------------------------------------------------------------
def _run_write_skew(isolation: str, n_shards: int = 1):
    """The canonical write-skew interleaving; returns (outcomes, events,
    the TM shards' summed ``ssi_aborts``)."""
    cluster = build(seed=11, n_shards=n_shards, isolation=isolation)
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
    ssi_aborts = sum(
        tm.metrics()["counters"].get("ssi_aborts", 0) for tm in cluster.tms
    )
    return outcome, recorder.events, ssi_aborts


@pytest.mark.parametrize("n_shards", (1, 2))
def test_write_skew_commits_under_si_and_its_cycle_is_flagged(n_shards):
    outcome, events, ssi_aborts = _run_write_skew("si", n_shards=n_shards)
    assert outcome == {"a": "committed", "b": "committed"}
    assert ssi_aborts == 0
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
    outcome, events, ssi_aborts = _run_write_skew("ssi", n_shards=n_shards)
    # The first committer wins; the second is the pivot and must abort.
    assert outcome == {"a": "committed", "b": "aborted"}
    # Counted once, at the window that refused -- with two shards the
    # pivot's keys live on the peer, which fetches its stamp remotely.
    assert ssi_aborts == 1
    report = SerializabilityChecker(events, mode="ssi").check()
    assert report.ok, report.anomalies
    assert report.counters["cycles"] == 0
    si = SIChecker(events).check()
    assert si.ok, si.anomalies


# ----------------------------------------------------------------------
# chaos: 20-seed SSI sweep with TM-shard crashes mid-certification
# ----------------------------------------------------------------------
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
@pytest.mark.parametrize("seed", (2, 9))
def test_si_history_leaks_no_read_sets(seed):
    """Under ``txn.isolation="si"`` no SSI metadata (read-sets) leaks
    into events or onto the wire."""
    assert '"reads"' not in _history_for(seed, isolation="si")


def test_ssi_mode_ships_read_sets(seed=2):
    """The same workload under SSI does carry ``reads`` on its commit
    attempts -- the knob is live, not silently ignored."""
    assert '"reads"' in _history_for(seed, isolation="ssi")


def test_unknown_isolation_rejected():
    config = ClusterConfig(seed=0)
    config.txn.isolation = "serializable"
    with pytest.raises(ValueError):
        SimCluster(config).start()
