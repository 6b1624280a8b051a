"""Unit tests for timestamps, write-sets, contexts, and SI certification."""

import pytest

from repro.errors import InvalidTxnState
from repro.txn import SICertifier, TimestampOracle, TxnContext, WriteSet
from repro.txn.concurrency import SSIWindow
from repro.txn.context import ABORTED, COMMITTED, EXECUTING, FLUSHED, PERSISTED


class TestOracle:
    def test_monotonic(self):
        oracle = TimestampOracle()
        seen = [oracle.next() for _ in range(100)]
        assert seen == sorted(seen)
        assert len(set(seen)) == 100

    def test_current_tracks_latest(self):
        oracle = TimestampOracle()
        assert oracle.current() == 0
        oracle.next()
        oracle.next()
        assert oracle.current() == 2


class TestWriteSet:
    def test_put_get_roundtrip(self):
        ws = WriteSet()
        ws.put("t", "r1", "f", "v1")
        assert ws.get("t", "r1", "f") == "v1"
        assert ("t", "r1", "f") in ws
        assert len(ws) == 1

    def test_last_write_wins(self):
        ws = WriteSet()
        ws.put("t", "r1", "f", "v1")
        ws.put("t", "r1", "f", "v2")
        assert ws.get("t", "r1", "f") == "v2"
        assert len(ws) == 1

    def test_delete_is_tombstone(self):
        ws = WriteSet()
        ws.put("t", "r1", "f", "v1")
        ws.delete("t", "r1", "f")
        cells = ws.stamped_cells("t", commit_ts=9)
        assert cells == [("r1", "f", 9, None)]

    def test_stamped_cells_filter_by_table_and_sort(self):
        ws = WriteSet()
        ws.put("b", "r2", "f", "x")
        ws.put("a", "r1", "f", "y")
        ws.put("b", "r1", "f", "z")
        assert ws.stamped_cells("b", 5) == [("r1", "f", 5, "z"), ("r2", "f", 5, "x")]
        assert ws.tables() == ["a", "b"]

    def test_empty(self):
        ws = WriteSet()
        assert ws.empty
        assert ws.stamped_cells("t", 1) == []


class TestContext:
    def make(self):
        return TxnContext(txn_id=1, start_ts=10, client_id="c")

    def test_lifecycle_happy_path(self):
        ctx = self.make()
        assert ctx.state == EXECUTING and ctx.active
        ctx.transition(COMMITTED)
        ctx.transition(FLUSHED)
        ctx.transition(PERSISTED)

    def test_abort_path(self):
        ctx = self.make()
        ctx.transition(ABORTED)
        with pytest.raises(InvalidTxnState):
            ctx.transition(COMMITTED)

    def test_illegal_jump_rejected(self):
        ctx = self.make()
        with pytest.raises(InvalidTxnState):
            ctx.transition(FLUSHED)  # must go through committed

    def test_require_active(self):
        ctx = self.make()
        ctx.require_active()
        ctx.transition(COMMITTED)
        with pytest.raises(InvalidTxnState):
            ctx.require_active()

    def test_read_only_property(self):
        ctx = self.make()
        assert ctx.read_only
        ctx.write_set.put("t", "r", "f", 1)
        assert not ctx.read_only


class TestSICertifier:
    def test_no_conflict_on_fresh_keys(self):
        cert = SICertifier()
        assert cert.certify(10, [("t", "r1", "f")]) is None

    def test_first_committer_wins(self):
        cert = SICertifier()
        # Txn A (snapshot 10) commits key K at ts 12.
        assert cert.certify(10, [("t", "k", "f")]) is None
        cert.record(12, [("t", "k", "f")])
        # Txn B also started at snapshot 10: it must abort on K.
        assert cert.certify(10, [("t", "k", "f")]) == ("t", "k", "f")
        # Txn C started after A committed: fine.
        assert cert.certify(12, [("t", "k", "f")]) is None

    def test_disjoint_writes_commute(self):
        cert = SICertifier()
        cert.record(12, [("t", "k1", "f")])
        assert cert.certify(10, [("t", "k2", "f")]) is None

    def test_horizon_eviction_forces_conservative_abort(self):
        cert = SICertifier(horizon=2)
        cert.record(5, [("t", "a", "f")])
        cert.record(6, [("t", "b", "f")])
        cert.record(7, [("t", "c", "f")])  # evicts ("a", ts 5): floor = 5
        # Snapshot 3 predates the floor and key "zz" is unknown: reject.
        assert cert.certify(3, [("t", "zz", "f")]) is not None
        # Snapshot 6 is within the window: unknown keys are fine.
        assert cert.certify(6, [("t", "zz", "f")]) is None

    def test_conflict_counters(self):
        cert = SICertifier()
        cert.record(12, [("t", "k", "f")])
        cert.certify(10, [("t", "k", "f")])
        cert.certify(13, [("t", "k", "f")])
        assert cert.conflicts == 1
        assert cert.certified == 1


class TestSSIWindow:
    def test_witness_is_the_smallest_key_of_a_witnessing_set(self):
        keys = [("t", row, "f") for row in ("q", "c", "x", "p")]
        window = SSIWindow()
        window.raise_floor(10)
        # A snapshot under the floor: the whole write-set witnesses.
        assert window.check(5, keys, []) == ("t", "c", "f")
        # A neighbour that is already a pivot source: T1 read r and wrote
        # the committer's read keys; T2 then overwrote r.
        window = SSIWindow()
        window.admit(0, 1, keys, [(("t", "r", "f"), 0)])
        window.admit(0, 2, [("t", "r", "f")], [])
        assert window.check(0, [], [(key, None) for key in keys]) == ("t", "c", "f")
