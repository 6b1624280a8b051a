"""Unit tests for the threshold trackers (Algorithms 1 and 3)."""

from repro.core.tracking import FlushTracker, PersistTracker


class TestFlushTracker:
    def test_advances_in_commit_order(self):
        t = FlushTracker()
        for ts in (1, 2, 3):
            t.note_commit(ts)
        t.note_flushed(1)
        t.advance()
        assert t.tf == 1
        t.note_flushed(2)
        t.note_flushed(3)
        t.advance()
        assert t.tf == 3

    def test_out_of_order_flush_held_back(self):
        """The paper's T_i < T_j case: flush of T_j completes first, but
        T_F must wait for T_i."""
        t = FlushTracker()
        t.note_commit(10)
        t.note_commit(11)
        t.note_flushed(11)  # later txn flushed first
        t.advance()
        assert t.tf == 0  # held back by txn 10
        t.note_flushed(10)
        t.advance()
        assert t.tf == 11  # both retire at once, in order

    def test_initial_tf_from_global(self):
        t = FlushTracker(initial_tf=55)
        assert t.tf == 55
        t.note_commit(60)
        t.note_flushed(60)
        t.advance()
        assert t.tf == 60

    def test_in_flight_counts_unflushed_commits(self):
        t = FlushTracker()
        for ts in (1, 2, 3):
            t.note_commit(ts)
        assert t.in_flight == 3
        t.note_flushed(1)
        t.advance()
        assert t.in_flight == 2

    def test_tf_monotonic_under_interleaving(self):
        t = FlushTracker()
        observed = []
        flush_order = [3, 1, 5, 2, 4]
        for ts in (1, 2, 3, 4, 5):
            t.note_commit(ts)
        for ts in flush_order:
            t.note_flushed(ts)
            t.advance()
            observed.append(t.tf)
        assert observed == sorted(observed)
        assert observed[-1] == 5


class TestAttemptsInFlight:
    """Sessions sharing a client: commit timestamps can arrive out of
    commit order, so T_F(c) waits for the attempts still in flight."""

    def test_later_stamp_answered_first_waits_for_the_earlier_attempt(self):
        t = FlushTracker()
        first, second = t.note_attempt(), t.note_attempt()
        t.note_commit(11, second)  # stamped later, answered first
        t.note_flushed(11)
        assert t.advance() == 0
        assert t.tf == 0  # 10 may still arrive
        t.note_commit(10, first)
        t.note_flushed(10)
        assert t.advance() == 2
        assert t.tf == 11
        assert t.order_violations == 0

    def test_dropped_attempt_releases_its_floor(self):
        t = FlushTracker()
        aborted, committed = t.note_attempt(), t.note_attempt()
        t.note_commit(7, committed)
        t.note_flushed(7)
        assert t.advance() == 0
        t.drop_attempt(aborted)  # certification failed: no timestamp coming
        assert t.advance() == 1
        assert t.tf == 7

    def test_lone_session_is_never_held_back(self):
        t = FlushTracker(initial_tf=3)
        t.note_commit(5, t.note_attempt())
        t.note_flushed(5)
        t.note_attempt()  # the session's next commit is already in flight
        assert t.advance() == 1
        assert t.tf == 5


class TestPersistTracker:
    def test_advance_to_global_tf_on_sync(self):
        t = PersistTracker()
        t.note_fragment()
        t.note_fragment()
        assert t.pending == 2
        t.begin_sync()
        t.complete_sync(tf_global=40)
        assert t.tp == 40
        assert t.pending == 0

    def test_tp_never_regresses_from_stale_tf(self):
        t = PersistTracker()
        t.complete_sync(50)
        t.complete_sync(30)  # stale global read
        assert t.tp == 50

    def test_piggyback_caps_report_until_synced(self):
        t = PersistTracker()
        t.complete_sync(100)
        assert t.report_value() == 100
        t.note_piggyback(40)  # inherited responsibility
        assert t.report_value() == 40
        t.begin_sync()
        t.complete_sync(110)  # the inherited updates are now durable
        assert t.report_value() == 110

    def test_piggyback_during_sync_survives_to_next_round(self):
        t = PersistTracker()
        t.complete_sync(100)
        t.begin_sync()
        t.note_piggyback(40)  # arrives mid-sync: not covered by it
        t.complete_sync(110)
        assert t.report_value() == 40  # still capped
        t.begin_sync()
        t.complete_sync(120)
        assert t.report_value() == 120

    def test_lowest_piggyback_wins(self):
        t = PersistTracker()
        t.complete_sync(100)
        t.note_piggyback(60)
        t.note_piggyback(30)
        t.note_piggyback(80)
        assert t.report_value() == 30


def test_tracking_imports_no_simulator_code():
    """The threshold rules are plain data and logic: neither the module nor
    anything it imports from the package reaches the simulator, the
    coordination service or the metrics layer."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    seen, todo = set(), ["repro.core.tracking"]
    while todo:
        module = todo.pop()
        if module in seen:
            continue
        seen.add(module)
        parts = module.split(".")[1:]
        path = root.joinpath(*parts).with_suffix(".py")
        if not path.exists():
            path = root.joinpath(*parts, "__init__.py")
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module:
                names = [node.module]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            todo.extend(n for n in names if n.startswith("repro."))
    forbidden = [
        m for m in seen if m.split(".")[1] in ("sim", "zk", "metrics")
    ]
    assert forbidden == [], forbidden
    assert "repro.config" in seen  # the walk does follow package imports
