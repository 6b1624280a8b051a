"""The deferred flush's event budget (docs/SIMULATION.md, "Where an event
is spent").

A write-set flush forks one child per region and joins them.  The forks
and the joins are hand-offs inside one causal chain, so they cost no
kernel event: what a flush over k regions pays for is its k RPCs (request
flight, service time, reply flight -- 3 each).  Per committed transaction
the one process event left is the start of its flush process, queued on
purpose (it keeps the flush's sends behind the session's next ``begin``).

Not marked ``slow``: this is the line `make test-fast` and CI hold
without running the benchmark.
"""

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key
from repro.sim.events import _Callback
from repro.sim.process import Process
from repro.txn.context import FLUSHED, PERSISTED
from tests.kvstore.conftest import MiniCluster

ROWS = ["a", "h", "n", "u"]  # one row in each of the four regions below


def watch_process_events(monkeypatch, kernel):
    """Record (kind, name) for every popped entry that starts or ends a process."""
    seen = []
    queue_cls = type(kernel._queue)
    real_pop = queue_cls.pop

    def pop(self):
        entry = real_pop(self)
        event = entry[3]
        if type(event) is _Callback:
            owner = getattr(event.fn, "__self__", None)
            if isinstance(owner, Process):
                seen.append(("start", owner.name))
        elif isinstance(event, Process):
            seen.append(("end" if event.ok else "fail", event.name))
        return entry

    monkeypatch.setattr(queue_cls, "pop", pop)
    return seen


def test_flush_write_set_costs_its_rpcs_and_no_process_event(monkeypatch):
    mini = MiniCluster(n_servers=2, table_splits=("g", "m", "t"))
    k = len(mini.regions)
    assert k == len(ROWS) == 4
    kernel = mini.kernel
    mini.put(1, ROWS)  # warms the client's region map
    seen = watch_process_events(monkeypatch, kernel)

    def flush(ts):
        cells = [(row, "f", ts, f"v{ts}") for row in ROWS]
        before = kernel.event_count
        acks = yield from mini.client.flush_write_set("t", ts, cells)
        return kernel.event_count - before, acks

    costs = []
    for ts in (2, 3, 4, 5, 6):
        # Idle again: the previous flush's WAL group sync has drained.
        kernel.run(until=kernel.now + 2.013)
        del seen[:]
        cost, acks = mini.run(flush(ts))
        assert sorted(acks) == sorted(mini.regions)
        assert [e for e in seen if "flush:" in e[1]] == []
        costs.append(cost)
    # A background tick (heartbeat, ping) may land inside a window and can
    # only add; the flush itself is exactly its k round trips.
    assert min(costs) == 3 * k


def test_committed_transactions_deferred_flush_costs_one_process_event(monkeypatch):
    config = ClusterConfig(seed=31)
    config.workload.n_rows = 2000
    config.kv.n_regions = 4
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    client = cluster.add_client("writer")
    rows = [row_key(i) for i in (1, 700, 1300, 1900)]

    def one_txn():
        ctx = yield from client.txn.begin()
        for row in rows:
            client.txn.write(ctx, TABLE, row, "x")
        yield from client.txn.commit(ctx)
        return ctx

    cluster.run(one_txn())  # warms the client's region map
    cluster.run_until(cluster.kernel.now + 1.0)
    seen = watch_process_events(monkeypatch, cluster.kernel)
    ctx = cluster.run(one_txn())
    cluster.run_until(cluster.kernel.now + 1.0)
    assert ctx.state in (FLUSHED, PERSISTED)
    regions = {
        cluster.run(client.kv.locate(TABLE, row))[0] for row in rows
    }
    assert len(regions) > 1  # the flush did fan out
    flush_events = [e for e in seen if "/flush:" in e[1]]
    assert flush_events == [("start", f"writer/flush:{ctx.commit_ts}")]
