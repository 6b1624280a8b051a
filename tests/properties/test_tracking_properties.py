"""Property-based tests for the threshold trackers (DESIGN.md invariant 1)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tracking import FlushTracker, PersistTracker


@st.composite
def commit_flush_schedules(draw):
    """Random interleavings: commits in ts order, flush completions in any
    order, possibly leaving a suffix unflushed."""
    n = draw(st.integers(min_value=1, max_value=30))
    commit_ts = list(range(1, n + 1))
    n_flushed = draw(st.integers(min_value=0, max_value=n))
    flushed = draw(st.permutations(commit_ts))[:n_flushed]
    # Advance points: after which events to call advance().
    return commit_ts, flushed


@given(commit_flush_schedules())
@settings(max_examples=200, deadline=None)
def test_tf_is_exactly_the_longest_flushed_prefix(schedule):
    commit_ts, flushed = schedule
    tracker = FlushTracker()
    for ts in commit_ts:
        tracker.note_commit(ts)
    for ts in flushed:
        tracker.note_flushed(ts)
        tracker.advance()
    # Model: T_F(c) is the largest ts such that every commit <= it flushed.
    flushed_set = set(flushed)
    expected = 0
    for ts in commit_ts:
        if ts in flushed_set:
            expected = ts
        else:
            break
    assert tracker.tf == expected


@given(
    st.lists(
        st.tuples(st.sampled_from(["commit", "flush", "advance"]), st.integers(0, 50)),
        max_size=120,
    )
)
@settings(max_examples=150, deadline=None)
def test_tf_monotonic_and_bounded_under_arbitrary_call_sequences(events):
    """T_F never decreases and never passes an unflushed commit, no matter
    how commits/flushes/heartbeat-drains interleave."""
    tracker = FlushTracker()
    next_ts = 1
    committed = []
    flushed = set()
    last_tf = 0
    for kind, arg in events:
        if kind == "commit":
            committed.append(next_ts)
            tracker.note_commit(next_ts)
            next_ts += 1
        elif kind == "flush":
            pending = [ts for ts in committed if ts not in flushed]
            if not pending:
                continue
            ts = pending[arg % len(pending)]
            flushed.add(ts)
            tracker.note_flushed(ts)
        else:
            tracker.advance()
            assert tracker.tf >= last_tf, "T_F must be monotone"
            last_tf = tracker.tf
            unflushed = [ts for ts in committed if ts not in flushed]
            if unflushed:
                assert tracker.tf < min(unflushed), (
                    "T_F passed a commit whose flush has not completed"
                )


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["sync", "piggyback", "fragment"]),
            st.integers(0, 1000),
        ),
        max_size=100,
    )
)
@settings(max_examples=150, deadline=None)
def test_persist_tracker_report_never_exceeds_unpersisted_inheritance(ops):
    """Whenever an inherited T_P is outstanding (not yet covered by a
    completed sync), the reported value must not exceed it."""
    tracker = PersistTracker()
    outstanding = None  # lowest piggyback not yet covered by a sync
    max_tf_seen = 0
    for kind, arg in ops:
        if kind == "fragment":
            tracker.note_fragment()
        elif kind == "piggyback":
            tracker.note_piggyback(arg)
            outstanding = arg if outstanding is None else min(outstanding, arg)
        else:
            tf = max_tf_seen + (arg % 10)
            max_tf_seen = tf
            tracker.begin_sync()
            tracker.complete_sync(tf)
            outstanding = None  # everything received is durable now
        if outstanding is not None:
            assert tracker.report_value() <= outstanding
        assert tracker.report_value() <= max(tracker.tp, tracker.tp)
