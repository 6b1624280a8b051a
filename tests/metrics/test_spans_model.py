"""The tracer against a brute-force model of a tracer that derives
everything the moment a span ends.

``SpanTracer`` only stamps and keeps while the simulation runs and
derives its statistics, the ``commit.reply`` spans and the retention
when it is read.  Random ``begin`` / ``child`` / ``end`` / ``abandon``
sequences over the real stage names, read at random points, must give
what the eager model gives: the same spans in the same order with the
same ids, parents, txn keys, times and tags, and the same summaries.
"""

import gc
import math
from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import Span, SpanTracer

STAGES = (
    "txn.begin", "commit.rpc", "commit.certify", "commit.log_append",
    "log.group_sync", "flush.writeset", "flush.region", "rs.apply",
    "wal.sync", "recovery.replay",
)
#: Drawn stages: the commit stages, whose spans interact, most often.
DRAWN = STAGES + ("commit.rpc", "commit.certify", "commit.log_append") * 2
TXNS = (None, "c0:1", "c0:2", "c1:1")
SUMMED = ("commit.certify", "commit.log_append")


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class EagerModel:
    """Times, sums, derives and retains each span as it ends."""

    def __init__(self, max_records):
        self.next_id = 1
        self.kept = deque(maxlen=max_records)
        self.durations = {}
        self.truncated = {}
        self.sums = {}

    def begin(self, stage, txn, parent, tags, now):
        record = {"id": self.next_id, "stage": stage, "txn": txn,
                  "parent": parent["id"] if parent else None, "start": now,
                  "end": None, "tags": dict(tags), "abandoned": False}
        self.next_id += 1
        return record

    def end(self, record, txn, tags, now):
        if record["end"] is not None or record["abandoned"]:
            return
        if txn is not None:
            record["txn"] = txn
        record["tags"].update(tags)
        record["end"] = now
        stage, txn = record["stage"], record["txn"]
        duration = now - record["start"]
        self.durations.setdefault(stage, []).append(duration)
        self.kept.append(record)
        if txn is None:
            return
        if stage in SUMMED:
            self.sums[txn, stage] = self.sums.get((txn, stage), 0.0) + duration
        elif stage == "commit.rpc":
            accounted = sum(self.sums.pop((txn, s), 0.0) for s in SUMMED)
            if record["tags"].get("outcome") == "committed":
                remainder = max(duration - accounted, 0.0)
                reply = {"id": self.next_id, "stage": "commit.reply",
                         "txn": txn, "parent": record["id"],
                         "start": now - remainder, "end": now, "tags": {}}
                self.next_id += 1
                self.durations.setdefault("commit.reply", []).append(remainder)
                self.kept.append(reply)

    def abandon(self, record):
        if record["end"] is None and not record["abandoned"]:
            record["abandoned"] = True
            stage = record["stage"]
            self.truncated[stage] = self.truncated.get(stage, 0) + 1


def percentile(ordered, p):
    if not ordered:
        return 0.0
    rank = p / 100.0 * (len(ordered) - 1)
    low, high = math.floor(rank), math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1 - frac) + ordered[high] * frac


def as_tuple(span):
    return (span.span_id, span.stage, span.txn, span.parent_id, span.start,
            span.end_time, span.tags)


def model_tuple(record):
    return (record["id"], record["stage"], record["txn"], record["parent"],
            record["start"], record["end"], record["tags"])


def check_spans(tracer, model, txn, stage):
    assert [as_tuple(s) for s in tracer.spans()] == [
        model_tuple(r) for r in model.kept]
    assert [as_tuple(s) for s in tracer.spans(txn=txn, stage=stage)] == [
        model_tuple(r) for r in model.kept
        if (txn is None or r["txn"] == txn)
        and (stage is None or r["stage"] == stage)]


def check_summary(tracer, model):
    """Each stage's mean is summed in the order an eager tracer's samples
    were in: end order, sorted in place by every earlier summary."""
    summary = tracer.stage_summary()
    assert sorted(summary) == sorted(set(model.durations) | set(model.truncated))
    for stage, entry in summary.items():
        values = model.durations.get(stage, [])
        assert entry["count"] == len(values)
        assert entry.get("truncated") == model.truncated.get(stage)
        assert entry["mean"] == (sum(values) / len(values) if values else 0.0)
        values.sort()
        for p in (50, 95, 99):
            assert entry[f"p{p}"] == percentile(values, p)
        assert entry["max"] == (values[-1] if values else 0.0)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_tracer_matches_the_eager_model(data):
    max_records = data.draw(st.integers(1, 6), label="max_records")
    clock = Clock()
    tracer = SpanTracer(clock, max_records=max_records)
    model = EagerModel(max_records)
    pairs = []  # (span, its model record)
    ops = data.draw(st.lists(st.sampled_from(
        ("begin", "child", "end", "end", "abandon", "tick", "spans", "summary")),
        max_size=60), label="ops")
    for n, op in enumerate(ops):
        if op == "tick":
            clock.now += data.draw(st.sampled_from((0.0, 0.1, 0.3, 0.7)))
        elif op in ("begin", "child") or not pairs:
            txn = data.draw(st.sampled_from(TXNS), label="txn")
            stage = data.draw(st.sampled_from(DRAWN), label="stage")
            live = [p for p in pairs if not p[1]["abandoned"]]
            if op == "child" and live:
                parent, parent_record = data.draw(st.sampled_from(live))
                span = parent.child(stage, n=n)
                record = model.begin(stage, parent_record["txn"],
                                     parent_record, {"n": n}, clock.now)
            else:
                span = tracer.begin(stage, txn=txn, n=n)
                record = model.begin(stage, txn, None, {"n": n}, clock.now)
            pairs.append((span, record))
        elif op == "end":
            span, record = data.draw(st.sampled_from(pairs))
            txn = data.draw(st.sampled_from(TXNS), label="end txn")
            tags = data.draw(st.sampled_from(
                ({}, {"outcome": "committed"}, {"outcome": "aborted"},
                 {"batch": 2})), label="tags")
            span.end(txn=txn, **tags)
            model.end(record, txn, tags, clock.now)
        elif op == "abandon":
            span, record = data.draw(st.sampled_from(pairs))
            span.abandon()
            model.abandon(record)
        elif op == "spans":
            check_spans(tracer, model,
                        data.draw(st.sampled_from(TXNS), label="read txn"),
                        data.draw(st.sampled_from((None, "commit.reply",
                                                   "commit.rpc")),
                                  label="read stage"))
        else:
            check_summary(tracer, model)
    check_spans(tracer, model, None, None)
    check_summary(tracer, model)


def live_spans():
    return sum(1 for o in gc.get_objects() if type(o) is Span)


def test_an_unread_tracer_holds_at_most_twice_max_records_spans():
    """With no reader, ended spans are folded whenever ``max_records`` of
    them are pending, so fewer than that wait beside the newest
    ``max_records`` kept, and nothing else holds a span."""
    max_records = 100
    clock = Clock()
    tracer = SpanTracer(clock, max_records=max_records)
    before = live_spans()
    most = 0
    for i in range(2_000):
        txn = f"c0:{i}"
        rpc = tracer.begin("commit.rpc", txn=txn)
        certify = tracer.begin("commit.certify", txn=txn)
        clock.now += 0.5
        certify.end()
        rpc.end(outcome="committed")
        del rpc, certify
        held = len(tracer._pending) + len(tracer._finished)
        most = max(most, held)
        if i % 401 == 0:
            assert live_spans() - before == held
    assert max_records < most <= 2 * max_records
    assert len(tracer.spans()) == max_records
    assert tracer.stage_summary()["commit.reply"]["count"] == 2_000
