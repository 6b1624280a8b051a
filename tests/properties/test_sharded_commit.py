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

from functools import partial

import pytest

from tests.properties.stage_crash import STAGES, crash_free_history, run_case

_run_case = partial(run_case, suite="sharded")


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


@pytest.mark.parametrize("seed", (2, 9))
def test_one_shard_history_leaks_no_sharded_metadata(seed):
    """A lone TM runs the same commit code as a shard, but nothing of the
    sharded bookkeeping shows in the canonical history export."""
    history = crash_free_history(seed, suite="sharded")
    assert '"owners"' not in history
