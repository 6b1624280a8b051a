"""Unit tests for the threshold trackers (Algorithms 1 and 3)."""

from repro.core.tracking import FlushTracker, PersistTracker
from repro.sim import Kernel


def drive(kernel, gen):
    return kernel.run_until_complete(kernel.process(gen))


def note_commit(kernel, tracker, ts):
    drive(kernel, tracker.note_commit(ts))


def note_flushed(kernel, tracker, ts):
    drive(kernel, tracker.note_flushed(ts))


class TestFlushTracker:
    def test_advances_in_commit_order(self):
        k = Kernel()
        t = FlushTracker(k)
        for ts in (1, 2, 3):
            note_commit(k, t, ts)
        note_flushed(k, t, 1)
        t.advance()
        assert t.tf == 1
        note_flushed(k, t, 2)
        note_flushed(k, t, 3)
        t.advance()
        assert t.tf == 3

    def test_out_of_order_flush_held_back(self):
        """The paper's T_i < T_j case: flush of T_j completes first, but
        T_F must wait for T_i."""
        k = Kernel()
        t = FlushTracker(k)
        note_commit(k, t, 10)
        note_commit(k, t, 11)
        note_flushed(k, t, 11)  # later txn flushed first
        t.advance()
        assert t.tf == 0  # held back by txn 10
        note_flushed(k, t, 10)
        t.advance()
        assert t.tf == 11  # both retire at once, in order

    def test_initial_tf_from_global(self):
        k = Kernel()
        t = FlushTracker(k, initial_tf=55)
        assert t.tf == 55
        note_commit(k, t, 60)
        note_flushed(k, t, 60)
        t.advance()
        assert t.tf == 60

    def test_in_flight_counts_unflushed_commits(self):
        k = Kernel()
        t = FlushTracker(k)
        for ts in (1, 2, 3):
            note_commit(k, t, ts)
        assert t.in_flight == 3
        note_flushed(k, t, 1)
        t.advance()
        assert t.in_flight == 2

    def test_tf_monotonic_under_interleaving(self):
        k = Kernel()
        t = FlushTracker(k)
        observed = []
        flush_order = [3, 1, 5, 2, 4]
        for ts in (1, 2, 3, 4, 5):
            note_commit(k, t, ts)
        for ts in flush_order:
            note_flushed(k, t, ts)
            t.advance()
            observed.append(t.tf)
        assert observed == sorted(observed)
        assert observed[-1] == 5


class TestAttemptsInFlight:
    """Sessions sharing a client: commit timestamps can arrive out of
    commit order, so T_F(c) waits for the attempts still in flight."""

    def test_later_stamp_answered_first_waits_for_the_earlier_attempt(self):
        k = Kernel()
        t = FlushTracker(k)
        first, second = t.note_attempt(), t.note_attempt()
        drive(k, t.note_commit(11, second))  # stamped later, answered first
        note_flushed(k, t, 11)
        assert t.advance() == 0
        assert t.tf == 0  # 10 may still arrive
        drive(k, t.note_commit(10, first))
        note_flushed(k, t, 10)
        assert t.advance() == 2
        assert t.tf == 11
        assert t.order_violations == 0

    def test_dropped_attempt_releases_its_floor(self):
        k = Kernel()
        t = FlushTracker(k)
        aborted, committed = t.note_attempt(), t.note_attempt()
        drive(k, t.note_commit(7, committed))
        note_flushed(k, t, 7)
        assert t.advance() == 0
        t.drop_attempt(aborted)  # certification failed: no timestamp coming
        assert t.advance() == 1
        assert t.tf == 7

    def test_lone_session_is_never_held_back(self):
        k = Kernel()
        t = FlushTracker(k, initial_tf=3)
        drive(k, t.note_commit(5, t.note_attempt()))
        note_flushed(k, t, 5)
        t.note_attempt()  # the session's next commit is already in flight
        assert t.advance() == 1
        assert t.tf == 5


class TestPersistTracker:
    def test_advance_to_global_tf_on_sync(self):
        k = Kernel()
        t = PersistTracker(k)
        t.note_fragment()
        t.note_fragment()
        assert t.pending == 2
        t.begin_sync()
        t.complete_sync(tf_global=40)
        assert t.tp == 40
        assert t.pending == 0

    def test_tp_never_regresses_from_stale_tf(self):
        k = Kernel()
        t = PersistTracker(k)
        t.complete_sync(50)
        t.complete_sync(30)  # stale global read
        assert t.tp == 50

    def test_piggyback_caps_report_until_synced(self):
        k = Kernel()
        t = PersistTracker(k)
        t.complete_sync(100)
        assert t.report_value() == 100
        t.note_piggyback(40)  # inherited responsibility
        assert t.report_value() == 40
        t.begin_sync()
        t.complete_sync(110)  # the inherited updates are now durable
        assert t.report_value() == 110

    def test_piggyback_during_sync_survives_to_next_round(self):
        k = Kernel()
        t = PersistTracker(k)
        t.complete_sync(100)
        t.begin_sync()
        t.note_piggyback(40)  # arrives mid-sync: not covered by it
        t.complete_sync(110)
        assert t.report_value() == 40  # still capped
        t.begin_sync()
        t.complete_sync(120)
        assert t.report_value() == 120

    def test_lowest_piggyback_wins(self):
        k = Kernel()
        t = PersistTracker(k)
        t.complete_sync(100)
        t.note_piggyback(60)
        t.note_piggyback(30)
        t.note_piggyback(80)
        assert t.report_value() == 30
