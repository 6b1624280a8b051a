"""Fixture histories and states: every anomaly class must be detected.

Each test hand-writes the smallest history (or threshold state) that
exhibits one known violation and asserts the oracle flags exactly that
class -- and that the corresponding clean variant passes.  This is the
oracle's own regression suite: a checker that misses a seeded anomaly is
worse than no checker, because it lends green sweeps false authority.
"""

import itertools
import json
import re
from pathlib import Path

from repro.check import SerializabilityChecker, SIChecker, evaluate_invariants

T = "usertable"

#: The invariant-monitor fixtures, replayed by the vocabulary test.
MONITOR_FIXTURES = []


def monitor_fixture(test):
    MONITOR_FIXTURES.append(test)
    return test


class H:
    """Tiny history builder producing recorder-shaped event dicts."""

    def __init__(self):
        self.events = []
        self._seq = itertools.count()

    def _emit(self, e, **fields):
        ev = {"e": e, "seq": next(self._seq), "t": float(fields.pop("at", 0.0))}
        ev.update(fields)
        self.events.append(ev)
        return self

    def begin(self, txn, start_ts, at=0.0):
        return self._emit("begin", txn=txn, client=txn.split(":")[0],
                          start_ts=start_ts, at=at)

    def read(self, txn, start_ts, row, version, value, own=False,
             at=1.0, col="f"):
        return self._emit("read", txn=txn, client=txn.split(":")[0],
                          table=T, row=row, column=col, start_ts=start_ts,
                          t0=at, version=version, value=value, own=own, at=at)

    def write(self, txn, row, value, at=0.5, col="f"):
        return self._emit("write", txn=txn, client=txn.split(":")[0],
                          table=T, row=row, column=col, value=value, at=at)

    def attempt(self, txn, start_ts, writes, at=0.8, owners=None):
        fields = dict(client=txn.split(":")[0], start_ts=start_ts,
                      writes=[list(w) for w in writes])
        if owners is not None:  # sharded TM: per-write owner shards
            fields["owners"] = list(owners)
        return self._emit("commit_attempt", txn=txn, at=at, **fields)

    def commit(self, txn, start_ts, commit_ts, read_only=False, at=1.0):
        return self._emit("commit", txn=txn, client=txn.split(":")[0],
                          start_ts=start_ts, commit_ts=commit_ts,
                          read_only=read_only, at=at)

    def abort(self, txn, start_ts, reason="conflict", at=1.0):
        return self._emit("abort", txn=txn, client=txn.split(":")[0],
                          start_ts=start_ts, reason=reason, at=at)

    def flushed(self, txn, commit_ts, at=2.0):
        return self._emit("flushed", txn=txn, client=txn.split(":")[0],
                          commit_ts=commit_ts, at=at)

    def committed_write(self, txn, start_ts, commit_ts, row, value,
                        at=0.5, flush_at=None):
        """begin / write / attempt / commit (/ flushed) in one call."""
        self.begin(txn, start_ts, at=at)
        self.write(txn, row, value, at=at)
        self.attempt(txn, start_ts, [(T, row, "f", value)], at=at)
        self.commit(txn, start_ts, commit_ts, at=at)
        if flush_at is not None:
            self.flushed(txn, commit_ts, at=flush_at)
        return self


def kinds(events):
    return sorted({a.kind for a in SIChecker(events).check().anomalies})


# ----------------------------------------------------------------------
# SI checker fixtures
# ----------------------------------------------------------------------
def test_clean_history_passes():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a", flush_at=2.0)
    h.begin("w1:1", 5, at=3.0).read("w1:1", 5, "r1", 5, "a", at=3.5)
    h.commit("w1:1", 5, 8, read_only=True, at=4.0)
    report = SIChecker(h.events).check()
    assert report.ok, report.anomalies
    assert report.counters["committed"] == 2
    assert report.counters["reads_checked"] == 1


def test_lost_update_detected():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a")
    h.committed_write("w1:1", 3, 7, "r1", "b")  # started inside w0:1's interval
    assert kinds(h.events) == ["lost_update"]


def test_serial_writers_not_flagged():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a")
    h.committed_write("w1:1", 5, 7, "r1", "b")  # began at w0:1's commit ts
    assert kinds(h.events) == []


def test_stale_read_detected():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a", flush_at=1.0)
    # Snapshot 10 covers commit 5, flush finished at t=1, read issued at
    # t=2 -- yet the read still returned the preloaded version 0.
    h.begin("r:1", 10, at=1.5).read("r:1", 10, "r1", 0, "init", at=2.0)
    assert kinds(h.events) == ["stale_read"]


def test_unflushed_write_set_may_be_missed():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a")  # committed, never flushed
    h.begin("r:1", 10, at=1.5).read("r:1", 10, "r1", 0, "init", at=2.0)
    assert kinds(h.events) == []  # "latest" visibility: not yet observable


def test_non_snapshot_read_detected():
    h = H()
    h.committed_write("w0:1", 0, 7, "r1", "a", flush_at=1.0)
    h.begin("r:1", 3, at=1.5).read("r:1", 3, "r1", 7, "a", at=2.0)
    assert kinds(h.events) == ["non_snapshot_read"]


def test_aborted_read_detected():
    h = H()
    h.begin("w0:1", 0).write("w0:1", "r1", "dirty")
    h.attempt("w0:1", 0, [(T, "r1", "f", "dirty")])
    h.abort("w0:1", 0)
    h.begin("r:1", 9, at=1.5).read("r:1", 9, "r1", 5, "dirty", at=2.0)
    assert kinds(h.events) == ["aborted_read"]


def test_value_mismatch_detected():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "certified", flush_at=1.0)
    h.begin("r:1", 9, at=1.5).read("r:1", 9, "r1", 5, "mangled", at=2.0)
    assert kinds(h.events) == ["value_mismatch"]


def test_initial_value_mismatch_detected():
    h = H()
    h.begin("r:1", 9).read("r:1", 9, "r1", 0, "wrong-init", at=1.0)
    checker = SIChecker(
        h.events, initial_value=lambda table, row, col: f"init-{row}"
    )
    assert [a.kind for a in checker.check().anomalies] == ["value_mismatch"]
    # Without the preload oracle, version-0 reads are accepted as-is.
    assert kinds(h.events) == []


def test_phantom_version_detected():
    h = H()
    h.begin("r:1", 9).read("r:1", 9, "r1", 5, "from-nowhere", at=1.0)
    assert kinds(h.events) == ["phantom_version"]


def test_own_read_mismatch_detected():
    h = H()
    h.begin("w0:1", 0).write("w0:1", "r1", "mine")
    h.read("w0:1", 0, "r1", None, "not-mine", own=True, at=0.6)
    assert kinds(h.events) == ["own_read_mismatch"]


def test_own_read_clean():
    h = H()
    h.begin("w0:1", 0).write("w0:1", "r1", "mine")
    h.read("w0:1", 0, "r1", None, "mine", own=True, at=0.6)
    assert kinds(h.events) == []


def test_own_read_judged_at_stream_position():
    # write v1, read it back, then overwrite: the read saw v1 and that is
    # correct -- it must not be judged against the transaction's final
    # buffer (a pattern every read-modify-write workload produces).
    h = H()
    h.begin("w0:1", 0).write("w0:1", "r1", "v1", at=0.2)
    h.read("w0:1", 0, "r1", None, "v1", own=True, at=0.4)
    h.write("w0:1", "r1", "v2", at=0.6)
    assert kinds(h.events) == []


def test_duplicate_commit_ts_detected():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a")
    h.committed_write("w1:1", 4, 5, "r2", "b")  # same commit ts
    assert "duplicate_commit_ts" in kinds(h.events)


def test_commit_order_detected():
    h = H()
    h.committed_write("w0:1", 9, 5, "r1", "a")  # commit_ts <= start_ts
    assert kinds(h.events) == ["commit_order"]


def test_unacked_replay_binds_one_timestamp():
    # Client crashed before learning the verdict; the RM replayed the
    # write-set at one commit ts.  Observing it at that ts is fine ...
    h = H()
    h.begin("w0:1", 0).write("w0:1", "r1", "u").write("w0:1", "r2", "u")
    h.attempt("w0:1", 0, [(T, "r1", "f", "u"), (T, "r2", "f", "u")])
    h.begin("r:1", 9, at=2.0).read("r:1", 9, "r1", 6, "u", at=2.5)
    h.begin("r:2", 9, at=3.0).read("r:2", 9, "r2", 6, "u", at=3.5)
    assert kinds(h.events) == []


def test_inconsistent_replay_detected():
    # ... but observing the same unacked write-set at two *different*
    # commit timestamps means replay was not idempotent (Algorithm 2).
    h = H()
    h.begin("w0:1", 0).write("w0:1", "r1", "u").write("w0:1", "r2", "u")
    h.attempt("w0:1", 0, [(T, "r1", "f", "u"), (T, "r2", "f", "u")])
    h.begin("r:1", 9, at=2.0).read("r:1", 9, "r1", 6, "u", at=2.5)
    h.begin("r:2", 9, at=3.0).read("r:2", 9, "r2", 8, "u", at=3.5)
    assert kinds(h.events) == ["inconsistent_replay"]


def test_scan_rows_are_checked():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a", flush_at=1.0)
    h._emit("scan", txn="r:1", client="r", table=T, start_row="r0",
            end_row="r9", column="f", start_ts=9, t0=2.0,
            rows=[["r1", 5, "tampered", False]], at=2.0)
    assert kinds(h.events) == ["value_mismatch"]


def cross_shard_commit(h, txn, start_ts, commit_ts, flush_at=None):
    """A two-slice write-set whose rows live on different TM shards."""
    h.begin(txn, start_ts)
    h.write(txn, "r1", "a")
    h.write(txn, "r2", "a")
    h.attempt(txn, start_ts,
              [(T, "r1", "f", "a"), (T, "r2", "f", "a")], owners=[0, 1])
    h.commit(txn, start_ts, commit_ts)
    if flush_at is not None:
        h.flushed(txn, commit_ts, at=flush_at)
    return h


def test_cross_shard_atomicity_detected():
    # Shard 0's slice (r1) is visible at the reader's snapshot, shard 1's
    # (r2) is not, after the flush completed: a torn cross-shard commit.
    h = H()
    cross_shard_commit(h, "w0:1", 0, 5, flush_at=1.0)
    h.begin("r:1", 9, at=1.5)
    h.read("r:1", 9, "r1", 5, "a", at=2.0)
    h.read("r:1", 9, "r2", 0, "init", at=2.5)
    assert "cross_shard_atomicity" in kinds(h.events)


def test_cross_shard_commit_fully_visible_passes():
    h = H()
    cross_shard_commit(h, "w0:1", 0, 5, flush_at=1.0)
    h.begin("r:1", 9, at=1.5)
    h.read("r:1", 9, "r1", 5, "a", at=2.0)
    h.read("r:1", 9, "r2", 5, "a", at=2.5)
    report = SIChecker(h.events).check()
    assert report.ok, report.anomalies
    assert report.counters["cross_shard_txns"] == 1


def test_unflushed_cross_shard_commit_may_be_missed():
    # Same torn read pattern, but the flush has not finished: under
    # "latest" visibility neither slice is observably in the store yet,
    # so a miss is legitimate (mirrors the unsharded stale-read gate).
    h = H()
    cross_shard_commit(h, "w0:1", 0, 5)  # committed, never flushed
    h.begin("r:1", 9, at=1.5)
    h.read("r:1", 9, "r1", 5, "a", at=2.0)
    h.read("r:1", 9, "r2", 0, "init", at=2.5)
    assert "cross_shard_atomicity" not in kinds(h.events)


def test_single_shard_write_set_not_audited_for_atomicity():
    # All writes on one shard: the classic rules apply, the cross-shard
    # pass has nothing to say even though owners metadata is present.
    h = H()
    h.begin("w0:1", 0)
    h.write("w0:1", "r1", "a")
    h.attempt("w0:1", 0, [(T, "r1", "f", "a")], owners=[1])
    h.commit("w0:1", 0, 5)
    h.flushed("w0:1", 5, at=1.0)
    h.begin("r:1", 9, at=1.5).read("r:1", 9, "r1", 5, "a", at=2.0)
    report = SIChecker(h.events).check()
    assert report.ok, report.anomalies
    assert report.counters["cross_shard_txns"] == 0


def test_unsharded_history_report_carries_no_cross_shard_counter():
    # No owners metadata anywhere: the checker must not even mention the
    # cross-shard pass, keeping pre-sharding reports byte-identical.
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a", flush_at=1.0)
    report = SIChecker(h.events).check()
    assert report.ok
    assert "cross_shard_txns" not in report.counters


def test_cross_shard_scan_detects_torn_write_set():
    # A scan whose returned rows span both TM shards' slices, issued
    # after the cross-shard writer's flush: seeing shard 0's row at the
    # committed version but shard 1's at the preload is a torn read --
    # the scan path must feed the cross_shard_atomicity audit exactly
    # like point reads do.
    h = H()
    cross_shard_commit(h, "w0:1", 0, 5, flush_at=1.0)
    h.begin("r:1", 9, at=1.5)
    h._emit("scan", txn="r:1", client="r", table=T, start_row="r0",
            end_row="r9", column="f", start_ts=9, t0=2.0,
            rows=[["r1", 5, "a", False], ["r2", 0, "init", False]], at=2.0)
    assert "cross_shard_atomicity" in kinds(h.events)


def test_cross_shard_scan_fully_visible_passes():
    h = H()
    cross_shard_commit(h, "w0:1", 0, 5, flush_at=1.0)
    h.begin("r:1", 9, at=1.5)
    h._emit("scan", txn="r:1", client="r", table=T, start_row="r0",
            end_row="r9", column="f", start_ts=9, t0=2.0,
            rows=[["r1", 5, "a", False], ["r2", 5, "a", False]], at=2.0)
    report = SIChecker(h.events).check()
    assert report.ok, report.anomalies
    assert report.counters["cross_shard_txns"] == 1


def test_report_is_deterministic():
    h = H()
    h.committed_write("w0:1", 0, 5, "r1", "a", flush_at=1.0)
    h.begin("r:1", 3, at=1.5).read("r:1", 3, "r1", 7, "a", at=2.0)
    first = SIChecker(h.events).check()
    second = SIChecker(h.events).check()
    assert first == second
    assert first.to_json() == second.to_json()


# ----------------------------------------------------------------------
# serializability checker fixtures
# ----------------------------------------------------------------------
def ser_kinds(events, mode):
    return sorted(
        {a.kind for a in SerializabilityChecker(events, mode=mode).check().anomalies}
    )


def _reading_writer(h, txn, start_ts, commit_ts, reads, writes):
    """begin / reads / writes / attempt / commit in one call.

    ``reads`` is ``[(row, version, value)]``, ``writes`` is
    ``[(row, value)]`` (empty for a read-only transaction).
    """
    h.begin(txn, start_ts)
    for row, version, value in reads:
        h.read(txn, start_ts, row, version, value)
    for row, value in writes:
        h.write(txn, row, value)
    h.attempt(txn, start_ts, [(T, row, "f", value) for row, value in writes])
    h.commit(txn, start_ts, commit_ts, read_only=not writes)
    return h


def test_classic_write_skew_cycle_flagged_under_ssi_only():
    # The canonical SI anomaly: both txns read {x, y} at the preload and
    # write the key the *other* one read.  SI commits both (disjoint
    # write-sets); the DSG has a pure rw-rw 2-cycle, which the ssi audit
    # must flag and the si audit (>= 2 rw edges: Fekete-legal) must not.
    h = H()
    _reading_writer(h, "a:1", 0, 5, [("x", 0, "i"), ("y", 0, "i")], [("y", "a")])
    _reading_writer(h, "b:1", 0, 6, [("x", 0, "i"), ("y", 0, "i")], [("x", "b")])
    assert ser_kinds(h.events, "ssi") == ["serializability_cycle"]
    assert ser_kinds(h.events, "si") == []
    report = SerializabilityChecker(h.events, mode="si").check()
    assert report.counters["cycles"] == 1
    assert report.counters["permitted_si_cycles"] == 1
    assert report.counters["edges_rw"] == 2


def test_read_only_anomaly_cycle_flagged_under_ssi_only():
    # Fekete's read-only transaction anomaly: the read-only T3 observes
    # T1's write but not T2's, yet T2 must serialize before T1.  Cycle
    # T1 -wr-> T3 -rw-> T2 -rw-> T1 with two rw edges: SI-legal, not
    # serializable.  The read-only txn must be a graph node.
    h = H()
    _reading_writer(h, "t1:1", 0, 5, [], [("y", "a")])
    _reading_writer(h, "t3:1", 5, 6, [("x", 0, "i"), ("y", 5, "a")], [])
    _reading_writer(h, "t2:1", 0, 10, [("x", 0, "i"), ("y", 0, "i")], [("x", "b")])
    assert ser_kinds(h.events, "ssi") == ["serializability_cycle"]
    assert ser_kinds(h.events, "si") == []
    report = SerializabilityChecker(h.events, mode="ssi").check()
    assert report.counters["read_only"] == 1
    [anomaly] = report.anomalies
    assert anomaly.kind == "serializability_cycle"
    assert "t1:1" in anomaly.detail and "t3:1" in anomaly.detail


def test_three_txn_rw_cycle_flagged_under_ssi_only():
    # A 3-cycle of pure antidependencies: each txn reads the preload of
    # the key the next one writes.  No pair conflicts directly, so only
    # a full-graph cycle search can see it.
    h = H()
    _reading_writer(h, "t1:1", 0, 5, [("c", 0, "i")], [("a", "1")])
    _reading_writer(h, "t2:1", 0, 6, [("a", 0, "i")], [("b", "2")])
    _reading_writer(h, "t3:1", 0, 7, [("b", 0, "i")], [("c", "3")])
    assert ser_kinds(h.events, "ssi") == ["serializability_cycle"]
    assert ser_kinds(h.events, "si") == []
    report = SerializabilityChecker(h.events, mode="ssi").check()
    assert report.counters["edges_rw"] == 3
    assert report.counters["cycles"] == 1


def test_dangerous_structure_without_cycle_not_flagged():
    # T_in -rw-> pivot -rw-> T_out but no path back: live SSI would
    # conservatively abort this (the classic SSI false positive), yet
    # the history is serializable, so the oracle must stay silent --
    # in both modes.  A checker that flagged it would make every SSI
    # chaos sweep fail on correct behaviour.
    h = H()
    _reading_writer(h, "tin:1", 0, 5, [("y", 0, "i")], [("z", "in")])
    _reading_writer(h, "piv:1", 0, 6, [("x", 0, "i")], [("y", "p")])
    _reading_writer(h, "tout:1", 0, 7, [], [("x", "out")])
    report = SerializabilityChecker(h.events, mode="ssi").check()
    assert report.ok, report.anomalies
    assert report.counters["edges_rw"] == 2
    assert report.counters["cycles"] == 0
    assert ser_kinds(h.events, "si") == []


def test_single_rw_cycle_flagged_even_under_si():
    # T1 writes x and y at ts 5 and is FLUSHED before T2 reads; T2 reads
    # y@5 (so T1 -wr-> T2) but x at the preload (so T2 -rw-> T1): a
    # cycle with exactly ONE rw edge.  With T1's flush complete, T2's
    # miss of x@5 is inexcusable -- its reads were not one snapshot --
    # so even the lenient si audit must flag the cycle.
    h = H()
    h.begin("t1:1", 0)
    h.write("t1:1", "x", "a").write("t1:1", "y", "a")
    h.attempt("t1:1", 0, [(T, "x", "f", "a"), (T, "y", "f", "a")])
    h.commit("t1:1", 0, 5)
    h.flushed("t1:1", 5, at=0.5)  # before T2's reads at t0=1.0
    _reading_writer(h, "t2:1", 5, 9, [("y", 5, "a"), ("x", 0, "i")], [("w", "b")])
    assert ser_kinds(h.events, "si") == ["serializability_cycle"]
    assert ser_kinds(h.events, "ssi") == ["serializability_cycle"]


def test_single_rw_cycle_from_flush_lag_excused_under_si_only():
    # Same shape, but T1's flush had NOT completed when T2's reads went
    # out: under "latest" visibility T2 legally read around the
    # still-in-flight x@5, so the si audit excuses the cycle (and counts
    # it as permitted), while the ssi audit -- where live certification
    # rejects fractured snapshots -- still flags it.
    h = H()
    h.begin("t1:1", 0)
    h.write("t1:1", "x", "a").write("t1:1", "y", "a")
    h.attempt("t1:1", 0, [(T, "x", "f", "a"), (T, "y", "f", "a")])
    h.commit("t1:1", 0, 5)
    h.flushed("t1:1", 5, at=3.0)  # after T2's reads at t0=1.0
    _reading_writer(h, "t2:1", 5, 9, [("y", 5, "a"), ("x", 0, "i")], [("w", "b")])
    assert ser_kinds(h.events, "si") == []
    assert ser_kinds(h.events, "ssi") == ["serializability_cycle"]
    report = SerializabilityChecker(h.events, mode="si").check()
    assert report.counters["cycles"] == 1
    assert report.counters["permitted_si_cycles"] == 1


def test_serializable_history_is_clean_and_deterministic():
    # wr and ww edges alone (a serial schedule) never cycle; the report
    # is byte-stable across runs.
    h = H()
    _reading_writer(h, "t1:1", 0, 5, [("x", 0, "i")], [("x", "a")])
    _reading_writer(h, "t2:1", 5, 8, [("x", 5, "a")], [("x", "b")])
    _reading_writer(h, "t3:1", 8, 9, [("x", 8, "b")], [])
    for mode in ("si", "ssi"):
        first = SerializabilityChecker(h.events, mode=mode).check()
        second = SerializabilityChecker(h.events, mode=mode).check()
        assert first.ok, first.anomalies
        assert first.to_json() == second.to_json()
    report = SerializabilityChecker(h.events, mode="ssi").check()
    assert report.counters["edges_ww"] == 1
    assert report.counters["edges_wr"] == 2
    # t1 read x@0 and wrote x's direct successor itself: the self rw is
    # skipped, and t1 -ww-> t2 already orders the chain.
    assert report.counters["edges_rw"] == 0


def test_aborted_and_unacked_txns_stay_out_of_the_graph():
    # The write-skew shape, but one side aborted and a third txn never
    # learned its verdict: neither may contribute nodes or edges, so no
    # cycle survives.
    h = H()
    _reading_writer(h, "a:1", 0, 5, [("x", 0, "i"), ("y", 0, "i")], [("y", "a")])
    h.begin("b:1", 0)
    h.read("b:1", 0, "x", 0, "i").read("b:1", 0, "y", 0, "i")
    h.write("b:1", "x", "b")
    h.attempt("b:1", 0, [(T, "x", "f", "b")])
    h.abort("b:1", 0)
    h.begin("c:1", 0)
    h.write("c:1", "q", "c")
    h.attempt("c:1", 0, [(T, "q", "f", "c")])  # unacked: no verdict event
    report = SerializabilityChecker(h.events, mode="ssi").check()
    assert report.ok, report.anomalies
    assert report.counters["committed"] == 1
    assert report.counters["txns"] == 3


def test_own_reads_add_no_edges():
    # Read-your-own-writes must not fabricate rw/wr self-structure.
    h = H()
    h.begin("t1:1", 0)
    h.write("t1:1", "x", "v1")
    h.read("t1:1", 0, "x", None, "v1", own=True)
    h.attempt("t1:1", 0, [(T, "x", "f", "v1")])
    h.commit("t1:1", 0, 5)
    report = SerializabilityChecker(h.events, mode="ssi").check()
    assert report.ok, report.anomalies
    assert report.counters["edges_rw"] == 0
    assert report.counters["edges_wr"] == 0


def test_read_miss_creates_rw_edge_to_first_writer():
    # A miss is a read of "before everything": the writer that creates
    # the key serializes after the reader.  Two creators of disjoint
    # keys, each missing the other's, is write skew over inserts.
    h = H()
    h.begin("a:1", 0)
    h.read("a:1", 0, "p", None, None)
    h.write("a:1", "q", "a")
    h.attempt("a:1", 0, [(T, "q", "f", "a")])
    h.commit("a:1", 0, 5)
    h.begin("b:1", 0)
    h.read("b:1", 0, "q", None, None)
    h.write("b:1", "p", "b")
    h.attempt("b:1", 0, [(T, "p", "f", "b")])
    h.commit("b:1", 0, 6)
    assert ser_kinds(h.events, "ssi") == ["serializability_cycle"]
    assert ser_kinds(h.events, "si") == []


def test_scan_rows_feed_the_serialization_graph():
    # Write skew where one side's read arrives via a scan row instead of
    # a point read: the graph must treat returned scan rows as reads.
    h = H()
    h.begin("a:1", 0)
    h._emit("scan", txn="a:1", client="a", table=T, start_row="x",
            end_row="z", column="f", start_ts=0, t0=0.3,
            rows=[["x", 0, "i", False], ["y", 0, "i", False]], at=0.3)
    h.write("a:1", "y", "a")
    h.attempt("a:1", 0, [(T, "y", "f", "a")])
    h.commit("a:1", 0, 5)
    _reading_writer(h, "b:1", 0, 6, [("x", 0, "i"), ("y", 0, "i")], [("x", "b")])
    assert ser_kinds(h.events, "ssi") == ["serializability_cycle"]


def test_version_dated_by_its_first_flushed_event():
    # t1 is flushed at t=1 and (in a merged or hand-written history) again
    # at t=3; t2's reads at t=2 miss x@5.  Both oracles date the version
    # at t=1, so the SI checker reports the miss as stale and the si-mode
    # graph audit finds the single-rw cycle inexcusable.
    h = H()
    h.begin("t1:1", 0)
    h.write("t1:1", "x", "a").write("t1:1", "y", "a")
    h.attempt("t1:1", 0, [(T, "x", "f", "a"), (T, "y", "f", "a")])
    h.commit("t1:1", 0, 5)
    h.flushed("t1:1", 5, at=1.0)
    h.flushed("t1:1", 5, at=3.0)
    h.begin("t2:1", 5, at=1.5)
    h.read("t2:1", 5, "y", 5, "a", at=2.0)
    h.read("t2:1", 5, "x", 0, "i", at=2.0)
    h.write("t2:1", "w", "b", at=2.5)
    h.attempt("t2:1", 5, [(T, "w", "f", "b")], at=2.5)
    h.commit("t2:1", 5, 9, at=2.5)
    assert kinds(h.events) == ["stale_read"]
    assert ser_kinds(h.events, "si") == ["serializability_cycle"]


# ----------------------------------------------------------------------
# whole reports: one history with every anomaly kind, pinned byte for byte
# ----------------------------------------------------------------------
def combined_history():
    """Every SI anomaly kind, scan rows, and serialization-graph cycles
    that the si audit flags and permits.  No transaction is flushed twice
    and every one begins, so nothing here depends on how an oracle reads
    an irregular history."""
    h = H()
    # w1 commits a@5, flushed at t=1.  r1's scan returns it mangled, plus
    # an aborted write and a version nobody wrote; r4's later read misses
    # it (stale); r2's snapshot 3 is older than the a@5 it returned.
    h.committed_write("w1:1", 0, 5, "a", "va", flush_at=1.0)
    h.begin("x1:1", 0).write("x1:1", "b", "dirty")
    h.attempt("x1:1", 0, [(T, "b", "f", "dirty")]).abort("x1:1", 0)
    h.begin("r1:1", 10, at=1.5)
    h._emit("scan", txn="r1:1", client="r1", table=T, start_row="a",
            end_row="d", column="f", start_ts=10, t0=1.8,
            rows=[["a", 5, "mangled", False], ["b", 7, "dirty", False],
                  ["c", 9, "ghost", False]], at=1.8)
    h.commit("r1:1", 10, 11, read_only=True, at=1.9)
    h.begin("r2:1", 3, at=1.5).read("r2:1", 3, "a", 5, "va", at=1.6)
    h.begin("r4:1", 10, at=1.5).read("r4:1", 10, "a", 0, "init", at=2.0)
    # Overlapping writers of d; a duplicated stamp; start_ts >= commit_ts.
    h.committed_write("w2:1", 2, 6, "d", "d2")
    h.committed_write("w3:1", 4, 8, "d", "d3")
    h.committed_write("w4:1", 10, 12, "g", "g4")
    h.committed_write("w5:1", 11, 12, "h", "h5")
    h.committed_write("w6:1", 20, 15, "i", "i6")
    # Own reads judged at their stream position: the second one misses
    # the overwrite.  o1 aborts without an attempt (buffered write-set).
    h.begin("o1:1", 0).write("o1:1", "e", "v1", at=0.2)
    h.read("o1:1", 0, "e", None, "v1", own=True, at=0.3)
    h.write("o1:1", "e", "v2", at=0.4)
    h.read("o1:1", 0, "e", None, "v1", own=True, at=0.5)
    h.abort("o1:1", 0, reason="application", at=0.6)
    # u1 never learns its verdict; r3 sees its write-set at two stamps.
    # xs is a cross-shard commit, flushed at t=1; r3 sees only one slice.
    h.begin("u1:1", 0).write("u1:1", "j", "u").write("u1:1", "k", "u")
    h.attempt("u1:1", 0, [(T, "j", "f", "u"), (T, "k", "f", "u")])
    cross_shard_commit(h, "xs:1", 0, 16, flush_at=1.0)
    h.begin("r3:1", 30, at=2.5)
    h.read("r3:1", 30, "j", 13, "u", at=3.0)
    h.read("r3:1", 30, "k", 14, "u", at=3.5)
    h.read("r3:1", 30, "r1", 16, "a", at=4.0)
    h.read("r3:1", 30, "r2", 0, "init", at=4.0)
    h.commit("r3:1", 30, 31, read_only=True, at=4.5)
    # Write skew (two rw edges: si permits it), one side reading by scan.
    h.begin("sa:1", 0)
    h._emit("scan", txn="sa:1", client="sa", table=T, start_row="p",
            end_row="r", column="f", start_ts=0, t0=0.3,
            rows=[["p", 0, "i", False], ["q", 0, "i", False]], at=0.3)
    h.write("sa:1", "q", "sa")
    h.attempt("sa:1", 0, [(T, "q", "f", "sa")]).commit("sa:1", 0, 21)
    _reading_writer(h, "sb:1", 0, 22, [("p", 0, "i"), ("q", 0, "i")],
                    [("p", "sb")])
    # One rw edge over a version flushed before the read: si flags it.
    h.begin("t1:1", 0)
    h.write("t1:1", "s", "t1").write("t1:1", "t", "t1")
    h.attempt("t1:1", 0, [(T, "s", "f", "t1"), (T, "t", "f", "t1")])
    h.commit("t1:1", 0, 23).flushed("t1:1", 23, at=0.5)
    _reading_writer(h, "t2:1", 23, 24, [("t", 23, "t1"), ("s", 0, "init")],
                    [("z", "t2")])
    return h.events


def pinned(counters, anomalies):
    """The exact ``CheckReport.to_json()`` of a failing report."""
    return json.dumps(
        {"ok": False, "counters": counters,
         "anomalies": [{"kind": k, "txn": t, "detail": d} for k, t, d in anomalies]},
        sort_keys=True, separators=(",", ":"),
    )


SI_REPORT = pinned(
    {"aborted": 2, "anomalies": 13, "bound_unacked": 1, "committed": 13,
     "cross_shard_txns": 1, "events": 81, "reads_checked": 12,
     "scan_rows_checked": 5, "txns": 18, "unacked": 1, "versions": 13},
    [("duplicate_commit_ts", "w5:1", "commit_ts 12 already used by w4:1"),
     ("commit_order", "w6:1", "commit_ts 15 <= start_ts 20"),
     ("value_mismatch", "r1:1",
      "scan of usertable/a/f@5 returned 'mangled', w1:1 certified 'va'"),
     ("aborted_read", "r1:1",
      "scan of usertable/b/f@7 returned 'dirty', only ever written by "
      "aborted x1:1"),
     ("phantom_version", "r1:1",
      "scan of usertable/c/f@9 returned 'ghost': no recorded transaction "
      "produced this version"),
     ("non_snapshot_read", "r2:1",
      "read of usertable/a/f returned version 5 > snapshot 3"),
     ("stale_read", "r4:1",
      "read of usertable/a/f at snapshot 10 returned version 0 but w1:1 "
      "committed 5 (flushed before the read)"),
     ("own_read_mismatch", "o1:1",
      "read of usertable/e/f returned 'v1', buffered write was 'v2'"),
     ("inconsistent_replay", "u1:1",
      "unacked write-set observed at both commit ts 13 and 14 (via read "
      "of usertable/k/f)"),
     ("stale_read", "r3:1",
      "read of usertable/r2/f at snapshot 30 returned version 0 but xs:1 "
      "committed 16 (flushed before the read)"),
     ("stale_read", "t2:1",
      "read of usertable/s/f at snapshot 23 returned version 0 but t1:1 "
      "committed 23 (flushed before the read)"),
     ("lost_update", "w3:1",
      "w3:1 [start 4, commit 8] and w2:1 [commit 6] both wrote "
      "usertable/d/f with overlapping intervals"),
     ("cross_shard_atomicity", "r3:1",
      "read of usertable/r2/f at snapshot 30 returned version 0 but "
      "cross-shard xs:1 committed 16 (shard 1 slice, flushed before the "
      "read): torn write-set")],
)
GRAPH_COUNTERS = {"committed": 13, "cycles": 3, "edges_rw": 4,
                  "edges_wr": 3, "edges_ww": 1, "read_only": 2, "txns": 18}
GRAPH_SI_REPORT = pinned(
    dict(GRAPH_COUNTERS, permitted_si_cycles=1),
    [("serializability_cycle", "r3:1", "cycle r3:1 -rw-> xs:1 -wr-> r3:1"),
     ("serializability_cycle", "t1:1", "cycle t2:1 -rw-> t1:1 -wr-> t2:1")],
)
GRAPH_SSI_REPORT = pinned(
    GRAPH_COUNTERS,
    [("serializability_cycle", "r3:1", "cycle r3:1 -rw-> xs:1 -wr-> r3:1"),
     ("serializability_cycle", "sa:1", "cycle sa:1 -rw-> sb:1 -rw-> sa:1"),
     ("serializability_cycle", "t1:1", "cycle t1:1 -wr-> t2:1 -rw-> t1:1")],
)


def test_combined_history_reports_are_pinned():
    # Every counter and every detail string, in report order: a refactor
    # of either oracle must leave these bytes alone.
    events = combined_history()
    assert SIChecker(events).check().to_json() == SI_REPORT
    assert SerializabilityChecker(events, mode="si").check().to_json() == \
        GRAPH_SI_REPORT
    assert SerializabilityChecker(events, mode="ssi").check().to_json() == \
        GRAPH_SSI_REPORT


def documented_kinds():
    """Every backticked name in the first column of CHECKING.md's tables."""
    doc = (Path(__file__).parents[2] / "docs" / "CHECKING.md").read_text()
    cells = re.findall(r"^\|([^|\n]*)\|", doc, re.M)
    return {name for cell in cells for name in re.findall(r"`([a-z_]+)`", cell)}


def test_every_reported_kind_is_in_the_checking_doc(monkeypatch):
    # One anomaly vocabulary: whatever the oracles report -- on the
    # combined history and on every invariant-monitor fixture below --
    # has a row in docs/CHECKING.md.
    events = combined_history()
    reported = set(kinds(events)) | set(ser_kinds(events, "ssi"))
    evaluate = evaluate_invariants

    def recording(state, memory=None):
        found = evaluate(state, memory)
        reported.update(v["kind"] for v in found)
        return found

    monkeypatch.setitem(globals(), "evaluate_invariants", recording)
    for fixture in MONITOR_FIXTURES:
        fixture()
    assert "tf_order" in reported and "truncation_le_tp" in reported
    assert sorted(reported - documented_kinds()) == []


# ----------------------------------------------------------------------
# invariant-monitor fixtures
# ----------------------------------------------------------------------
def state(rm=None, clients=None, servers=None, tm=None, t=1.0):
    return {
        "t": t,
        "rm": rm,
        "clients": clients or {},
        "servers": servers or {},
        "tm": tm or {},
    }


def rm_state(tf=10, tp=10, live=(), epoch=1):
    return {"epoch": epoch, "global_tf": tf, "global_tp": tp,
            "live_clients": list(live)}


def vkinds(st, memory=None):
    return sorted({v["kind"] for v in evaluate_invariants(st, memory)})


@monitor_fixture
def test_clean_state_passes():
    st = state(
        rm=rm_state(tf=10, tp=8, live=["w0"]),
        clients={"w0": {"epoch": 1, "tf": 9, "pending_head": 12,
                        "order_violations": 0}},
        servers={"rs0": {"incarnation": 1, "tp": 8, "last_tf_seen": 10}},
        tm={"truncated_below": {"tm": 7}},
    )
    assert vkinds(st, {}) == []


@monitor_fixture
def test_tp_above_tf_flagged():
    assert vkinds(state(rm=rm_state(tf=5, tp=9))) == ["tp_le_tf"]


@monitor_fixture
def test_tf_passing_pending_head_flagged():
    st = state(
        rm=rm_state(tf=10, tp=5, live=["w0"]),
        clients={"w0": {"epoch": 1, "tf": 10, "pending_head": 7,
                        "order_violations": 0}},
    )
    assert vkinds(st) == ["tf_le_pending"]


@monitor_fixture
def test_dead_client_pending_head_ignored():
    st = state(
        rm=rm_state(tf=10, tp=5, live=[]),  # RM no longer tracks w0 live
        clients={"w0": {"epoch": 1, "tf": 10, "pending_head": 7,
                        "order_violations": 0}},
    )
    assert vkinds(st) == []


@monitor_fixture
def test_out_of_order_retirement_flagged():
    st = state(clients={"w0": {"epoch": 1, "tf": 5, "pending_head": None,
                               "order_violations": 2}})
    assert vkinds(st) == ["tf_order"]


@monitor_fixture
def test_client_tf_regression_flagged():
    memory = {}
    base = {"pending_head": None, "order_violations": 0}
    assert vkinds(state(clients={"w0": dict(base, epoch=1, tf=10)}), memory) == []
    assert vkinds(state(clients={"w0": dict(base, epoch=1, tf=6)}), memory) == \
        ["tf_monotone"]


@monitor_fixture
def test_client_restart_resets_tf_watermark():
    memory = {}
    base = {"pending_head": None, "order_violations": 0}
    evaluate_invariants(state(clients={"w0": dict(base, epoch=1, tf=10)}), memory)
    # New incarnation (fresh tracker): lower T_F is legitimate.
    assert vkinds(state(clients={"w0": dict(base, epoch=2, tf=0)}), memory) == []


@monitor_fixture
def test_server_tp_above_last_tf_flagged():
    st = state(servers={"rs0": {"incarnation": 1, "tp": 12, "last_tf_seen": 9}})
    assert vkinds(st) == ["tp_le_last_tf"]


@monitor_fixture
def test_server_tf_view_ahead_of_rm_flagged():
    st = state(
        rm=rm_state(tf=10, tp=5),
        servers={"rs0": {"incarnation": 1, "tp": 5, "last_tf_seen": 15}},
    )
    assert vkinds(st) == ["server_tf_view"]


@monitor_fixture
def test_server_tp_regression_flagged_within_incarnation():
    memory = {}
    st1 = state(servers={"rs0": {"incarnation": 1, "tp": 10, "last_tf_seen": 10}})
    st2 = state(servers={"rs0": {"incarnation": 1, "tp": 4, "last_tf_seen": 10}})
    assert vkinds(st1, memory) == []
    assert vkinds(st2, memory) == ["tp_monotone"]


@monitor_fixture
def test_server_restart_resets_tp_watermark():
    memory = {}
    st1 = state(servers={"rs0": {"incarnation": 1, "tp": 10, "last_tf_seen": 10}})
    st2 = state(servers={"rs0": {"incarnation": 2, "tp": 0, "last_tf_seen": 10}})
    assert vkinds(st1, memory) == []
    assert vkinds(st2, memory) == []


@monitor_fixture
def test_truncation_past_tp_flagged():
    st = state(rm=rm_state(tf=10, tp=5), tm={"truncated_below": {"tm": 8}})
    assert vkinds(st) == ["truncation_le_tp"]


@monitor_fixture
def test_global_threshold_regression_flagged():
    memory = {}
    assert vkinds(state(rm=rm_state(tf=10, tp=8)), memory) == []
    assert vkinds(state(rm=rm_state(tf=7, tp=6)), memory) == ["global_monotone"]


@monitor_fixture
def test_rm_restart_resets_global_watermarks():
    memory = {}
    evaluate_invariants(state(rm=rm_state(tf=10, tp=8, epoch=1)), memory)
    assert vkinds(state(rm=rm_state(tf=0, tp=0, epoch=2)), memory) == []


# ----------------------------------------------------------------------
# sharded TM: one pair of thresholds, every shard's truncation checked
# ----------------------------------------------------------------------
@monitor_fixture
def test_sharded_clean_state_passes():
    st = state(
        rm=rm_state(tf=10, tp=8),
        tm={"truncated_below": {"tm0": 7, "tm1": 6}},
    )
    assert vkinds(st, {}) == []


@monitor_fixture
def test_shard_truncation_past_tp_flagged():
    st = state(
        rm=rm_state(tf=10, tp=5),
        tm={"truncated_below": {"tm0": 0, "tm1": 8}},
    )
    found = evaluate_invariants(st)
    assert [(v["kind"], v["subject"]) for v in found] == [
        ("truncation_le_tp", "tm1")
    ]
