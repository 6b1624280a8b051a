"""Tests for the transaction() context helper and the scan column fix."""

import pytest

from repro import ClusterConfig, SimCluster, TABLE
from repro.errors import TxnAborted, TxnConflict
from repro.kvstore.keys import row_key
from repro.txn.context import ABORTED, COMMITTED


def make(seed=61):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = 1000
    config.kv.n_regions = 2
    cluster = SimCluster(config).start()
    cluster.preload()
    return cluster


# ---------------------------------------------------------------------------
# transaction() helper
# ---------------------------------------------------------------------------
def test_transaction_commits_and_returns_body_result():
    cluster = make()
    handle = cluster.add_client()

    def body(ctx):
        handle.txn.write(ctx, TABLE, row_key(1), "hello")
        yield from ()
        return "result"

    def run():
        return (yield from handle.txn.transaction(body))

    ctx, result = cluster.run(run())
    assert result == "result"
    assert ctx.state == COMMITTED
    assert ctx.commit_ts is not None
    assert handle.txn.metrics()["counters"]["committed"] == 1


@pytest.mark.kills_process
def test_transaction_auto_aborts_on_body_exception():
    cluster = make()
    handle = cluster.add_client()

    class Boom(Exception):
        pass

    def body(ctx):
        handle.txn.write(ctx, TABLE, row_key(1), "x")
        yield from ()
        raise Boom()

    def run():
        return (yield from handle.txn.transaction(body))

    with pytest.raises(Boom):
        cluster.run(run())
    assert handle.txn.metrics()["counters"]["aborted"] == 1
    assert handle.txn.metrics()["counters"]["committed"] == 0


def test_transaction_respects_business_rule_abort():
    cluster = make()
    handle = cluster.add_client()

    def body(ctx):
        yield from handle.txn.abort(ctx)
        return "declined"

    def run():
        return (yield from handle.txn.transaction(body))

    ctx, result = cluster.run(run())
    assert result == "declined"
    assert ctx.state == ABORTED
    assert handle.txn.metrics()["counters"]["committed"] == 0


def test_transaction_retries_conflicts_up_to_n_times():
    cluster = make()
    a = cluster.add_client("a")
    b = cluster.add_client("b")
    row = row_key(7)

    def conflicting(ctx):
        # Read-modify-write the same row; interleave a competing committed
        # write between begin and commit so certification fails.
        value = yield from a.txn.read(ctx, TABLE, row)

        def competitor(bctx):
            b.txn.write(bctx, TABLE, row, f"b-{ctx.txn_id}")
            yield from ()

        yield from b.txn.transaction(competitor)
        a.txn.write(ctx, TABLE, row, f"a-saw-{value}")

    def run_no_retry():
        return (yield from a.txn.transaction(conflicting))

    with pytest.raises(TxnConflict):
        cluster.run(run_no_retry())
    aborted_before = a.txn.metrics()["counters"]["aborted"]
    assert aborted_before >= 1

    # With retries the helper keeps re-running the body; the body conflicts
    # every attempt, so exactly retries+1 attempts happen, then it raises.
    def run_with_retries():
        return (yield from a.txn.transaction(conflicting, retries=2))

    begun_before = a.txn.metrics()["counters"]["begun"]
    with pytest.raises(TxnConflict):
        cluster.run(run_with_retries())
    assert a.txn.metrics()["counters"]["begun"] - begun_before == 3


def test_transaction_wait_flush_reaches_flushed_state():
    cluster = make()
    handle = cluster.add_client()

    def body(ctx):
        handle.txn.write(ctx, TABLE, row_key(3), "durable")
        yield from ()

    def run():
        return (yield from handle.txn.transaction(body, wait_flush=True))

    ctx, _ = cluster.run(run())
    assert handle.txn.metrics()["counters"]["flushed"] == 1
    assert ctx.commit_ts is not None


# ---------------------------------------------------------------------------
# scan column overlay (regression: buffered writes of *other* columns used
# to leak into a scan of column "f")
# ---------------------------------------------------------------------------
def test_scan_overlay_ignores_other_columns():
    cluster = make()
    handle = cluster.add_client()
    row = row_key(10)

    def scenario():
        ctx = yield from handle.txn.begin()
        handle.txn.write(ctx, TABLE, row, "meta", column="g")
        rows = yield from handle.txn.scan(
            ctx, TABLE, row_key(9), end_row=row_key(12)
        )
        yield from handle.txn.abort(ctx)
        return rows

    rows = cluster.run(scenario())
    # Column "f" scan: the buffered column-"g" write must not appear.
    assert dict(rows).get(row) != "meta"


def test_scan_overlay_applies_same_column_writes_and_deletes():
    cluster = make()
    handle = cluster.add_client()

    def scenario():
        ctx = yield from handle.txn.begin()
        handle.txn.write(ctx, TABLE, row_key(20), "mine")
        handle.txn.delete(ctx, TABLE, row_key(21))
        rows = dict((yield from handle.txn.scan(
            ctx, TABLE, row_key(19), end_row=row_key(23)
        )))
        yield from handle.txn.abort(ctx)
        return rows

    rows = cluster.run(scenario())
    assert rows[row_key(20)] == "mine"          # own write overlays
    assert row_key(21) not in rows              # own delete hides
    assert rows[row_key(22)] == "init-22"       # untouched row scans through


def test_scan_of_nondefault_column_sees_only_that_column():
    cluster = make()
    handle = cluster.add_client()
    row = row_key(30)

    def scenario():
        ctx = yield from handle.txn.begin()
        handle.txn.write(ctx, TABLE, row, "gee", column="g")
        rows = dict((yield from handle.txn.scan(
            ctx, TABLE, row_key(29), end_row=row_key(32), column="g"
        )))
        yield from handle.txn.abort(ctx)
        return rows

    rows = cluster.run(scenario())
    assert rows == {row: "gee"}  # preloaded "f" values are invisible here


def test_buffered_delete_does_not_shorten_a_limited_scan():
    # The store is asked for one row more per buffered delete in range,
    # since the overlay hides the deleted row after the store counted it.
    cluster = make()
    handle = cluster.add_client()

    def scenario():
        ctx = yield from handle.txn.begin()
        handle.txn.delete(ctx, TABLE, row_key(20))
        rows = yield from handle.txn.scan(ctx, TABLE, row_key(19), limit=3)
        yield from handle.txn.abort(ctx)
        return rows

    rows = cluster.run(scenario())
    assert [row for row, _v in rows] == [row_key(19), row_key(21), row_key(22)]


def test_rows_live_only_in_another_column_do_not_count_toward_the_limit():
    cluster = make()
    handle = cluster.add_client()

    def commit_g():
        ctx = yield from handle.txn.begin()
        handle.txn.write(ctx, TABLE, row_key(40), "g-40", column="g")
        handle.txn.write(ctx, TABLE, row_key(45), "g-45", column="g")
        yield from handle.txn.commit(ctx, wait_flush=True)

    cluster.run(commit_g())

    def scan():
        ctx = yield from handle.txn.begin()
        rows = yield from handle.txn.scan(ctx, TABLE, row_key(39), limit=2, column="g")
        yield from handle.txn.abort(ctx)
        return rows

    # Rows 39 and 40 are live in "f"; only rows live in "g" may count.
    assert cluster.run(scan()) == [(row_key(40), "g-40"), (row_key(45), "g-45")]
