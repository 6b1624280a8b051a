"""The commit path's event budget (docs/SIMULATION.md, "Where an event is
spent").

A write-set flush forks one child per region and joins them.  The forks
and the joins are hand-offs inside one causal chain, so they cost no
kernel event: what a flush over k regions pays for is its k RPCs (request
flight, service time, reply flight -- 3 each).  Per committed transaction
the one process event left is the start of its flush process, queued on
purpose (it keeps the flush's sends behind the session's next ``begin``).

Around it, the zero-delay entries a commit may spend are the three that
stay queued on purpose: the flush start, the group commit's ``done`` and
the committer's re-``get`` of appends that queued during a sync.  A worker
slot granted to a timed service, an append waking the idle committer and
a gate nobody waits on are function calls.

Not marked ``slow``: this is the line `make test-fast` and CI hold
without running the benchmark.
"""

from collections import Counter

from repro import ClusterConfig, SimCluster, TABLE
from repro.kvstore.keys import row_key
from repro.sim.events import _Callback
from repro.sim.process import Process
from repro.sim.resource import Resource
from repro.txn.context import FLUSHED, PERSISTED
from tests.kvstore.conftest import MiniCluster

ROWS = ["a", "h", "n", "u"]  # one row in each of the four regions below


def _waiters(callbacks):
    return ",".join(
        sorted({cb.__self__.name for cb in callbacks
                if isinstance(getattr(cb, "__self__", None), Process)})
    ) or "-"


def tally_zero_delay_entries(monkeypatch, kernel):
    """Hook the kernel queue's push and pop; return the list that gets one
    ``(kind, waiter)`` per popped entry that was pushed for the instant
    it was pushed at:

    * ``("start", name)`` / ``("end", name)`` / ``("fail", name)``: a
      process's queued kick-off, or its own event;
    * ``("grant", waiters)``: a resource slot granted through the queue;
    * ``("wake", waiters)``: an event its waiters were parked on when it
      was triggered;
    * ``("resume", waiters)``: an event triggered before anyone waited on
      it, then yielded (a ``get`` of an item already queued);
    * ``("callback", qualname)``: any other scheduled call;
    * ``("unwatched", type)``: an event nobody waits on.
    """
    seen = []
    parked_at_push = {}
    queue_cls = type(kernel._queue)
    real_push, real_pop = queue_cls.push, queue_cls.pop

    def push(self, entry):
        if entry[0] == kernel.now:
            event = entry[3]
            parked_at_push[entry[2]] = bool(getattr(event, "callbacks", None))
        real_push(self, entry)

    def pop(self):
        entry = real_pop(self)
        parked = parked_at_push.pop(entry[2], None)
        if parked is None:
            return entry
        event = entry[3]
        if type(event) is _Callback:
            owner = getattr(event.fn, "__self__", None)
            if isinstance(owner, Process):
                seen.append(("start", owner.name))
            else:
                seen.append(("callback", event.fn.__qualname__))
        elif isinstance(event, Process):
            seen.append(("end" if event.ok else "fail", event.name))
        elif not event.callbacks:
            seen.append(("unwatched", type(event).__name__))
        elif isinstance(event._value, Resource):
            seen.append(("grant", _waiters(event.callbacks)))
        else:
            seen.append(("wake" if parked else "resume", _waiters(event.callbacks)))
        return entry

    monkeypatch.setattr(queue_cls, "push", push)
    monkeypatch.setattr(queue_cls, "pop", pop)
    return seen


def test_flush_write_set_costs_its_rpcs_and_no_process_event(monkeypatch):
    mini = MiniCluster(n_servers=2, table_splits=("g", "m", "t"))
    k = len(mini.regions)
    assert k == len(ROWS) == 4
    kernel = mini.kernel
    mini.put(1, ROWS)  # warms the client's region map
    seen = tally_zero_delay_entries(monkeypatch, kernel)

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


def _cluster(seed, **kv):
    config = ClusterConfig(seed=seed)
    config.workload.n_rows = 2000
    config.kv.n_regions = 4
    for name, value in kv.items():
        setattr(config.kv, name, value)
    cluster = SimCluster(config).start()
    cluster.preload()
    cluster.warm_caches()
    return cluster


def test_committed_transactions_deferred_flush_costs_one_process_event(monkeypatch):
    cluster = _cluster(31)
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
    seen = tally_zero_delay_entries(monkeypatch, cluster.kernel)
    ctx = cluster.run(one_txn())
    cluster.run_until(cluster.kernel.now + 1.0)
    assert ctx.state in (FLUSHED, PERSISTED)
    regions = {
        cluster.run(client.kv.locate(TABLE, row))[0] for row in rows
    }
    assert len(regions) > 1  # the flush did fan out
    flush_events = [e for e in seen if "/flush:" in e[1]]
    assert flush_events == [("start", f"writer/flush:{ctx.commit_ts}")]


def test_commit_path_spends_only_the_queued_hand_offs(monkeypatch):
    """Concurrent sessions against one TM, one worker per region server so
    reads queue for the slot: every zero-delay entry is a flush start, a
    group-commit ``done`` or the committer's re-``get``."""
    cluster = _cluster(37, rpc_workers=1)
    clients = [cluster.add_client(f"s{i}") for i in range(6)]
    kernel = cluster.kernel

    def session(client, first):
        for n in range(4):
            ctx = yield from client.txn.begin()
            for i in range(3):
                row = row_key((first + 331 * (n * 3 + i)) % 2000)
                yield from client.txn.read(ctx, TABLE, row)
                client.txn.write(ctx, TABLE, row, f"{client.node.addr}-{n}")
            yield from client.txn.commit(ctx)

    seen = tally_zero_delay_entries(monkeypatch, kernel)
    sessions = [kernel.process(session(c, 97 * i)) for i, c in enumerate(clients)]
    while not all(s.triggered for s in sessions):
        cluster.run_until(kernel.now + 1.0)
    cluster.run_until(kernel.now + 1.0)

    tally = Counter(
        ("flush start" if kind == "start" and "/flush:" in who else
         "group-commit done" if kind == "wake" and who == "tm/rpc:commit" else
         "committer re-get" if kind == "resume" and who == "tm/group-commit" else
         (kind, who))
        for kind, who in seen
        if who != "session"  # this test's session processes start and end
    )
    assert tally["flush start"] == 6 * 4
    assert tally["group-commit done"] == 6 * 4
    assert tally["committer re-get"] >= 1  # commits did queue behind a sync
    assert set(tally) == {"flush start", "group-commit done", "committer re-get"}
