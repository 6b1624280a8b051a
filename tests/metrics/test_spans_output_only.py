"""Spans are output only: no product code reads one.

The same workload runs once with the real tracer and once with a tracer
whose spans are inert -- no readable attribute, and ``end`` / ``child`` /
``abandon`` do nothing.  If any component read a span (its txn key, its
duration, its tags) the inert run would raise or take another path; it
must instead reach the same simulated instant through the same events
with the same outcomes.
"""

import pytest

from repro import ClusterConfig, SimCluster
from repro.metrics import SpanTracer
from repro.workload import WorkloadDriver


class InertSpan:
    """A span that records nothing and exposes nothing."""

    __slots__ = ()

    def end(self, **tags):
        return self

    def child(self, stage, **tags):
        return self

    def abandon(self):
        pass


INERT = InertSpan()


def run_workload(tm_shards, isolation):
    config = ClusterConfig(seed=17)
    config.workload.n_rows = 300
    config.workload.n_clients = 12
    config.workload.ops_per_txn = 3
    config.kv.n_regions = 4
    config.txn.tm_shards = tm_shards
    config.txn.isolation = isolation
    cluster = SimCluster(config).start()
    result = WorkloadDriver(cluster, mix="A").run(duration=1.5, target_tps=None)
    kernel = cluster.kernel
    return {
        "now": kernel.now,
        "events": kernel.event_count,
        "outcomes": (result.committed, result.aborted, result.failed),
        "tm": [tm.metrics()["counters"] for tm in cluster.tms],
    }


@pytest.mark.parametrize("tm_shards, isolation", [(1, "si"), (2, "ssi")])
def test_inert_spans_change_nothing(monkeypatch, tm_shards, isolation):
    traced = run_workload(tm_shards, isolation)
    tm = traced["tm"]
    # The run covers a commit, a refusal and a read-only commit at every
    # shard count, plus cross-shard commits and SSI refusals when sharded.
    assert sum(c["commits"] for c in tm) > 0
    assert sum(c["aborts"] for c in tm) > 0
    assert sum(c["read_only"] for c in tm) > 0
    if tm_shards > 1:
        assert sum(c["cross_shard_commits"] for c in tm) > 0
        assert sum(c.get("ssi_aborts", 0) for c in tm) > 0

    monkeypatch.setattr(SpanTracer, "begin", lambda *args, **kwargs: INERT)
    assert run_workload(tm_shards, isolation) == traced
