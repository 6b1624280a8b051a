"""Tests for the metrics registry and the commit-path span tracer."""

import json
import re
from pathlib import Path

import pytest

from repro.metrics import MetricsRegistry, SpanTracer, spans_table, tracer_for
from repro.metrics import spans as spans_module
from repro.sim import Kernel
from tests.core.conftest import commit_rows, recovery_cluster


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_counter_inc_and_set():
    reg = MetricsRegistry("tm", "tm0")
    c = reg.counter("commits")
    c.inc()
    c.inc(4)
    assert c.value == 5
    c.set(2)
    assert reg.counter("commits").value == 2  # same instance


def test_labeled_series_are_distinct_and_flattened():
    reg = MetricsRegistry("rs", "rs0")
    reg.counter("fragments", region="r1").inc()
    reg.counter("fragments", region="r2").inc(2)
    snap = reg.snapshot()
    assert snap["counters"] == {
        "fragments{region=r1}": 1,
        "fragments{region=r2}": 2,
    }


def test_gauge_moves_both_ways():
    reg = MetricsRegistry("x")
    g = reg.gauge("depth")
    g.set(3)
    g.set(2)
    assert g.value == 2
    g.set(10.5)
    assert reg.snapshot()["gauges"]["depth"] == 10.5


def test_snapshot_keys_are_sorted_and_json_stable():
    reg = MetricsRegistry("tm", "tm0")
    reg.counter("zeta").inc()
    reg.counter("alpha").inc()
    snap = reg.snapshot()
    assert list(snap["counters"]) == ["alpha", "zeta"]
    # byte-identical dumps regardless of creation order
    reg2 = MetricsRegistry("tm", "tm0")
    reg2.counter("alpha").inc()
    reg2.counter("zeta").inc()
    assert json.dumps(snap, sort_keys=True) == json.dumps(
        reg2.snapshot(), sort_keys=True
    )


def test_counters_returns_hot_path_handles():
    reg = MetricsRegistry("txn_client", "c0")
    begun, committed = reg.counters("begun", "committed")
    assert reg.snapshot()["counters"] == {"begun": 0, "committed": 0}
    begun.inc()
    committed.inc(7)
    assert reg.counter("begun").value == 1
    assert reg.counter("committed").value == 7


def test_legacy_counter_view_is_gone():
    reg = MetricsRegistry("txn_client", "c0")
    assert not hasattr(reg, "counter" + "_view")
    import repro.metrics as metrics
    assert not hasattr(metrics, "Counter" + "View")


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_span_lifecycle_records_duration():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    span = tracer.begin("commit.rpc", txn="c0:1")
    assert span.open and span.duration is None
    clock.now = 0.25
    span.end(outcome="committed")
    assert not span.open
    assert span.duration == pytest.approx(0.25)
    assert span.tags["outcome"] == "committed"
    # idempotent
    clock.now = 9.0
    span.end()
    assert span.duration == pytest.approx(0.25)
    assert tracer.stage_summary()["commit.rpc"]["count"] == 1


def test_child_spans_nest_and_share_txn_key():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    parent = tracer.begin("commit.certify", txn="c0:7")
    clock.now = 0.1
    child = parent.child("commit.log_append", batch=3)
    assert child.txn == "c0:7"
    assert child.parent_id == parent.span_id
    clock.now = 0.3
    child.end()
    parent.end()
    assert tracer.children(parent) == [child]
    assert {s.stage for s in tracer.spans(txn="c0:7")} == {
        "commit.certify", "commit.log_append",
    }


def test_sum_durations_and_derived_record():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    s1 = tracer.begin("commit.certify", txn="c0:1")
    clock.now = 0.2
    s1.end()
    s2 = tracer.begin("commit.log_append", txn="c0:1")
    clock.now = 0.5
    s2.end()
    assert tracer.sum_durations("c0:1") == pytest.approx(0.5)
    assert tracer.sum_durations("c0:1") == 0.0  # read once, then dropped
    derived = tracer.record("commit.reply", 0.05, txn="c0:1")
    assert derived.duration == pytest.approx(0.05)
    assert tracer.stage_summary()["commit.reply"]["count"] == 1


def test_crash_truncated_spans_excluded_from_latency():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    ok = tracer.begin("flush.writeset", txn="c0:1")
    clock.now = 0.1
    ok.end()
    doomed = tracer.begin("flush.writeset", txn="c0:2")
    clock.now = 50.0  # crash happens; span never ends
    victims = tracer.truncate_open(lambda s: s.stage == "flush.writeset")
    assert victims == [doomed]
    summary = tracer.stage_summary()["flush.writeset"]
    assert summary["count"] == 1          # only the finished span
    assert summary["truncated"] == 1      # the crashed one is visible
    assert summary["max"] == pytest.approx(0.1)
    assert tracer.truncated_spans() == [doomed]
    assert tracer.open_spans() == []


def test_stage_with_only_truncated_spans_reports_zero_latency():
    tracer = SpanTracer(FakeClock())
    tracer.begin("wal.sync")
    tracer.truncate_open(lambda s: True)
    summary = tracer.stage_summary()["wal.sync"]
    assert summary["count"] == 0
    assert summary["truncated"] == 1


def test_retention_keeps_the_newest_spans_and_counts_them_all():
    clock = FakeClock()
    tracer = SpanTracer(clock, max_records=5)
    for i in range(4):
        tracer.begin("wal.sync", n=i).end()
    for i in range(4, 8):
        tracer.record("commit.reply", 0.01, n=i)
    assert [s.tags["n"] for s in tracer.spans()] == [3, 4, 5, 6, 7]
    assert [s.tags["n"] for s in tracer.spans(stage="wal.sync")] == [3]
    summary = tracer.stage_summary()
    assert summary["wal.sync"]["count"] == 4
    assert summary["commit.reply"]["count"] == 4


def test_tracer_for_is_shared_per_kernel():
    kernel = Kernel(seed=1)
    assert tracer_for(kernel) is tracer_for(kernel)
    other = Kernel(seed=1)
    assert tracer_for(kernel) is not tracer_for(other)


def test_spans_table_renders_stage_rows():
    clock = FakeClock()
    tracer = SpanTracer(clock)
    span = tracer.begin("commit.rpc")
    clock.now = 0.01
    span.end()
    tracer.begin("flush.region")
    tracer.truncate_open(lambda s: s.stage == "flush.region")
    table = spans_table(tracer.stage_summary())
    assert "commit.rpc" in table
    assert "flush.region" in table


def documented_stages():
    """The stage names in OBSERVABILITY.md's taxonomy table and in the
    span module's docstring."""
    doc = (Path(__file__).parents[2] / "docs" / "OBSERVABILITY.md").read_text()
    table = doc.split("### Stage taxonomy", 1)[1].split("\n#", 1)[0]
    in_table = set(re.findall(r"^\| `([a-z_.]+)`", table, re.M))
    in_docstring = set(re.findall(r"^    ([a-z_]+\.[a-z_]+) ", spans_module.__doc__, re.M))
    return in_table, in_docstring


def test_failover_stages_are_in_the_documented_taxonomy():
    cluster = recovery_cluster(seed=31)
    handle = cluster.add_client()
    commit_rows(cluster, handle, list(range(0, 2000, 97)), "pre")
    cluster.crash_server(0)
    cluster.run_until(cluster.kernel.now + 15.0)
    tracer = tracer_for(cluster.kernel)
    stages = set(tracer.stage_summary())
    stages |= {span.stage for span in tracer.open_spans() + tracer.truncated_spans()}
    assert {"recovery.failover", "recovery.plan", "recovery.fragment_replay"} <= stages
    in_table, in_docstring = documented_stages()
    assert sorted(stages - in_table) == []
    assert sorted(stages - in_docstring) == []
