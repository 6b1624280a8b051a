"""Fixture histories and states: every anomaly class must be detected.

Each test hand-writes the smallest history (or threshold state) that
exhibits one known violation and asserts the oracle flags exactly that
class -- and that the corresponding clean variant passes.  This is the
oracle's own regression suite: a checker that misses a seeded anomaly is
worse than no checker, because it lends green sweeps false authority.
"""

import itertools

from repro.check import SerializabilityChecker, SIChecker, evaluate_invariants

T = "usertable"


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


def test_clean_state_passes():
    st = state(
        rm=rm_state(tf=10, tp=8, live=["w0"]),
        clients={"w0": {"epoch": 1, "tf": 9, "pending_head": 12,
                        "order_violations": 0}},
        servers={"rs0": {"incarnation": 1, "tp": 8, "last_tf_seen": 10}},
        tm={"truncated_below": {"tm": 7}},
    )
    assert vkinds(st, {}) == []


def test_tp_above_tf_flagged():
    assert vkinds(state(rm=rm_state(tf=5, tp=9))) == ["tp_le_tf"]


def test_tf_passing_pending_head_flagged():
    st = state(
        rm=rm_state(tf=10, tp=5, live=["w0"]),
        clients={"w0": {"epoch": 1, "tf": 10, "pending_head": 7,
                        "order_violations": 0}},
    )
    assert vkinds(st) == ["tf_le_pending"]


def test_dead_client_pending_head_ignored():
    st = state(
        rm=rm_state(tf=10, tp=5, live=[]),  # RM no longer tracks w0 live
        clients={"w0": {"epoch": 1, "tf": 10, "pending_head": 7,
                        "order_violations": 0}},
    )
    assert vkinds(st) == []


def test_out_of_order_retirement_flagged():
    st = state(clients={"w0": {"epoch": 1, "tf": 5, "pending_head": None,
                               "order_violations": 2}})
    assert vkinds(st) == ["tf_order"]


def test_client_tf_regression_flagged():
    memory = {}
    base = {"pending_head": None, "order_violations": 0}
    assert vkinds(state(clients={"w0": dict(base, epoch=1, tf=10)}), memory) == []
    assert vkinds(state(clients={"w0": dict(base, epoch=1, tf=6)}), memory) == \
        ["tf_monotone"]


def test_client_restart_resets_tf_watermark():
    memory = {}
    base = {"pending_head": None, "order_violations": 0}
    evaluate_invariants(state(clients={"w0": dict(base, epoch=1, tf=10)}), memory)
    # New incarnation (fresh tracker): lower T_F is legitimate.
    assert vkinds(state(clients={"w0": dict(base, epoch=2, tf=0)}), memory) == []


def test_server_tp_above_last_tf_flagged():
    st = state(servers={"rs0": {"incarnation": 1, "tp": 12, "last_tf_seen": 9}})
    assert vkinds(st) == ["tp_le_last_tf"]


def test_server_tf_view_ahead_of_rm_flagged():
    st = state(
        rm=rm_state(tf=10, tp=5),
        servers={"rs0": {"incarnation": 1, "tp": 5, "last_tf_seen": 15}},
    )
    assert vkinds(st) == ["server_tf_view"]


def test_server_tp_regression_flagged_within_incarnation():
    memory = {}
    st1 = state(servers={"rs0": {"incarnation": 1, "tp": 10, "last_tf_seen": 10}})
    st2 = state(servers={"rs0": {"incarnation": 1, "tp": 4, "last_tf_seen": 10}})
    assert vkinds(st1, memory) == []
    assert vkinds(st2, memory) == ["tp_monotone"]


def test_server_restart_resets_tp_watermark():
    memory = {}
    st1 = state(servers={"rs0": {"incarnation": 1, "tp": 10, "last_tf_seen": 10}})
    st2 = state(servers={"rs0": {"incarnation": 2, "tp": 0, "last_tf_seen": 10}})
    assert vkinds(st1, memory) == []
    assert vkinds(st2, memory) == []


def test_truncation_past_tp_flagged():
    st = state(rm=rm_state(tf=10, tp=5), tm={"truncated_below": {"tm": 8}})
    assert vkinds(st) == ["truncation_le_tp"]


def test_global_threshold_regression_flagged():
    memory = {}
    assert vkinds(state(rm=rm_state(tf=10, tp=8)), memory) == []
    assert vkinds(state(rm=rm_state(tf=7, tp=6)), memory) == ["global_monotone"]


def test_rm_restart_resets_global_watermarks():
    memory = {}
    evaluate_invariants(state(rm=rm_state(tf=10, tp=8, epoch=1)), memory)
    assert vkinds(state(rm=rm_state(tf=0, tp=0, epoch=2)), memory) == []


# ----------------------------------------------------------------------
# sharded TM: one pair of thresholds, every shard's truncation checked
# ----------------------------------------------------------------------
def test_sharded_clean_state_passes():
    st = state(
        rm=rm_state(tf=10, tp=8),
        tm={"truncated_below": {"tm0": 7, "tm1": 6}},
    )
    assert vkinds(st, {}) == []


def test_shard_truncation_past_tp_flagged():
    st = state(
        rm=rm_state(tf=10, tp=5),
        tm={"truncated_below": {"tm0": 0, "tm1": 8}},
    )
    found = evaluate_invariants(st)
    assert [(v["kind"], v["subject"]) for v in found] == [
        ("truncation_le_tp", "tm1")
    ]
