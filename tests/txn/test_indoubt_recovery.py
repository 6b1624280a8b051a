"""Coordinator-crash recovery for the sharded commit protocol.

The non-blocking guarantee: a cross-shard transaction whose coordinator
dies at ANY point after prepare leaves no participant blocked.  Each
prepared-but-undecided shard races a presumed-abort proposal against the
authority's first-writer-wins decision registry; whatever got there
first -- the coordinator's commit or a resolver's abort -- is the
transaction's one outcome, and every survivor (including the restarted
coordinator itself) converges to it.

Three crash points, per the protocol's stage structure:

* after prepare-all but *before* the decision is registered -- nobody
  ever proposed commit, so the registry fills with abort and every
  shard rolls the prepare back;
* after the decision is registered and *partially* fanned out -- the
  in-doubt participant's abort proposal comes back as the original
  commit, which it then applies;
* during the coordinator's *own* slice log sync (decision registered,
  own apply incomplete) -- the restarted coordinator resolves its own
  journalled prepare against the registry and finishes the commit.

In every case the registry records exactly one outcome per transaction,
and duplicate or late proposals get that original back.
"""

from repro.config import TxnSettings
from repro.sim import Kernel, Network, Node
from repro.txn.manager import TransactionManager
from repro.txn.sharding import shard_addrs, shard_of

TABLE = "t"


def make_shards(n=3, seed=3, resolve_timeout=0.3):
    k = Kernel(seed=seed)
    net = Network(k)
    settings = TxnSettings()
    settings.tm_shards = n
    settings.indoubt_resolve_timeout = resolve_timeout
    addrs = shard_addrs(n)
    tms = [
        TransactionManager(
            k, net, addrs[i], settings=settings,
            shard_index=i, shard_addrs=addrs,
        )
        for i in range(n)
    ]
    caller = Node(k, net, "c1")
    return k, net, tms, caller


def row_for_shard(shard: int, n_shards: int) -> str:
    """A row name the keyspace hash places on the given shard."""
    i = 0
    while True:
        row = f"r{i}"
        if shard_of(TABLE, row, n_shards) == shard:
            return row
        i += 1


def drive(k, gen):
    out = {}

    def proc():
        out["value"] = yield from gen

    k.run_until_complete(k.process(proc()))
    return out["value"]


def begin(k, tms, caller):
    def proc():
        return (yield caller.call(
            tms[0].addr, "begin", timeout=5.0, client_id="c1"
        ))

    return drive(k, proc())


def crash_when(k, cond, node, trace):
    """Crash ``node`` the instant ``cond()`` first holds."""

    def watcher():
        # Finer than the 0.25 ms mean one-way latency, so the crash lands
        # inside an RPC round-trip window, not after it.
        while not cond():
            yield k.timeout(0.0001)
        node.crash()
        trace.append(round(k.now, 4))

    proc = k.process(watcher())
    proc.defuse()


def restart_shard(k, tm):
    tm.revive()
    proc = tm.spawn(tm.restart(), name="tm-restart")
    proc.defuse()


def assert_converged(tms, key, outcome):
    """Every shard that saw the txn agrees; nothing left in doubt."""
    applied = [tm._applied[key] for tm in tms if key in tm._applied]
    assert applied, "no shard resolved the transaction"
    assert {a["outcome"] for a in applied} == {outcome}
    assert len({a["commit_ts"] for a in applied}) == 1
    for tm in tms:
        assert key not in tm._prepared, f"{tm.addr} still in doubt"
        assert not tm._reserved, f"{tm.addr} holds stale reservations"
    # The ledger half of the contract: exactly one registry outcome.
    assert list(tms[0]._registry) == [key]
    assert tms[0]._registry[key]["outcome"] == outcome


def cross_shard_writes(n_shards, owners, value="v"):
    return [
        (TABLE, row_for_shard(s, n_shards), "f", f"{value}{s}")
        for s in owners
    ]


# ----------------------------------------------------------------------
# crash point 1: after prepare-all, before the decision is registered
# ----------------------------------------------------------------------

def test_coordinator_dies_before_decision_presumes_abort():
    # Owners {1, 2}: the coordinator (lowest owner, shard 1) is NOT the
    # authority, so the registry stays reachable while it is down.  The
    # crash lands while the coordinator is parked on shard 2's prepare
    # round-trip: its own slice is journalled, the remote prepare request
    # is in flight (and completes -- the participant journals it too),
    # and the decision is never proposed.  Every slice ends up prepared
    # with nobody to decide: the canonical blocking case of classic 2PC.
    k, _net, tms, caller = make_shards(n=3)
    opened = begin(k, tms, caller)
    writes = cross_shard_writes(3, (1, 2))
    key = ("c1", opened["txn_id"])
    trace = []
    crash_when(
        k,
        lambda: key in tms[1]._prepared and key not in tms[0]._registry,
        tms[1],
        trace,
    )

    def proc():
        try:
            yield caller.call(
                tms[1].addr, "commit", timeout=2.0,
                client_id="c1", txn_id=opened["txn_id"],
                start_ts=opened["start_ts"], writes=writes,
            )
        except Exception:
            pass  # the coordinator died under the RPC

    drive(k, proc())
    assert trace, "watcher never saw the prepared-undecided state"
    k.run(until=k.now + 2.0)  # participant resolver presumes abort
    restart_shard(k, tms[1])
    k.run(until=k.now + 2.0)  # restarted coordinator rolls back too
    assert_converged(tms, key, "abort")
    assert tms[2].metrics()["counters"]["indoubt_resolved"] >= 1
    # The write never reached any slice log.
    for tm in tms:
        assert list(tm.log.store.fetch(0)) == []


# ----------------------------------------------------------------------
# crash point 2: decision registered, fan-out only partially delivered
# ----------------------------------------------------------------------

def test_coordinator_dies_after_partial_fanout_commit_survives():
    # Impersonate a coordinator that durably registered COMMIT, delivered
    # it to shard 1, and vanished before reaching shard 2.
    k, _net, tms, caller = make_shards(n=3)
    opened = begin(k, tms, caller)
    key = ("c1", opened["txn_id"])
    writes = cross_shard_writes(3, (1, 2))
    by_shard = {
        shard_of(w[0], w[1], 3): [w] for w in writes
    }

    def proc():
        for s in (1, 2):
            reply = yield caller.call(
                tms[s].addr, "prepare", timeout=5.0,
                client_id="c1", txn_id=opened["txn_id"],
                start_ts=opened["start_ts"], writes=by_shard[s],
            )
            assert reply["status"] == "prepared"
        decision = yield caller.call(
            tms[0].addr, "decide", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"], outcome="commit",
        )
        assert decision["outcome"] == "commit"
        # Partial fan-out: shard 1 learns the outcome, shard 2 does not.
        yield caller.call(
            tms[1].addr, "decision", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"],
            outcome="commit", commit_ts=decision["commit_ts"],
        )
        return decision

    decision = drive(k, proc())
    assert key in tms[2]._prepared  # genuinely in doubt
    # Shard 2's resolver proposes abort, gets the commit back, applies it.
    k.run(until=k.now + 2.0)
    assert_converged(tms, key, "commit")
    assert tms[2].metrics()["counters"]["indoubt_resolved"] == 1
    for s in (1, 2):
        logged = [r.commit_ts for r in tms[s].log.store.fetch(0)]
        assert logged == [decision["commit_ts"]]


# ----------------------------------------------------------------------
# crash point 3: during the coordinator's own slice log sync
# ----------------------------------------------------------------------

def test_coordinator_dies_during_own_log_sync_commit_survives():
    k, _net, tms, caller = make_shards(n=3)
    opened = begin(k, tms, caller)
    writes = cross_shard_writes(3, (1, 2))
    key = ("c1", opened["txn_id"])
    trace = []
    # Decision durably registered, own prepare journal entry still open:
    # the coordinator is inside its own slice apply (the log sync).
    crash_when(
        k,
        lambda: key in tms[0]._registry and key in tms[1]._prepared,
        tms[1],
        trace,
    )

    def proc():
        try:
            yield caller.call(
                tms[1].addr, "commit", timeout=2.0,
                client_id="c1", txn_id=opened["txn_id"],
                start_ts=opened["start_ts"], writes=writes,
            )
        except Exception:
            pass

    drive(k, proc())
    assert trace, "watcher never caught the mid-apply window"
    commit_ts = tms[0]._registry[key]["commit_ts"]
    k.run(until=k.now + 2.0)  # shard 2 resolves via the registry
    restart_shard(k, tms[1])
    k.run(until=k.now + 2.0)  # coordinator finishes its own slice
    assert_converged(tms, key, "commit")
    for s in (1, 2):
        logged = [r.commit_ts for r in tms[s].log.store.fetch(0)]
        assert logged == [commit_ts], f"shard {s} slice not durable"


# ----------------------------------------------------------------------
# one outcome, ever
# ----------------------------------------------------------------------

def test_late_and_duplicate_proposals_return_the_original_outcome():
    # After an in-doubt abort resolution, a late coordinator commit
    # proposal (and repeats of either) must get the abort back.
    k, _net, tms, caller = make_shards(n=3)
    opened = begin(k, tms, caller)
    key = ("c1", opened["txn_id"])
    writes = cross_shard_writes(3, (1, 2))
    by_shard = {shard_of(w[0], w[1], 3): [w] for w in writes}

    def prepare_only():
        reply = yield caller.call(
            tms[2].addr, "prepare", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"],
            start_ts=opened["start_ts"], writes=by_shard[2],
        )
        return reply

    assert drive(k, prepare_only())["status"] == "prepared"
    k.run(until=k.now + 2.0)  # resolver wins the race with abort

    def late_proposals():
        first = yield caller.call(
            tms[0].addr, "decide", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"], outcome="commit",
        )
        second = yield caller.call(
            tms[0].addr, "decide", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"], outcome="commit",
        )
        return first, second

    first, second = drive(k, late_proposals())
    assert first["outcome"] == "abort"  # first writer won; commit denied
    assert second == first
    assert_converged(tms, key, "abort")
    # The denied commit consumed no timestamp and logged nothing.
    assert list(tms[2].log.store.fetch(0)) == []
