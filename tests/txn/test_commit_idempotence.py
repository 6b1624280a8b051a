"""The TM's commit decision cache: retried commits never certify twice.

Under a lossy fabric a client whose commit *response* vanished must
retry; the retry reaches the handler with a fresh request id, so the
transport dedup cannot help.  The transaction manager therefore caches
the verdict per ``(client_id, txn_id)`` and replays it.

The sharded protocol adds two more delivery paths that must be equally
idempotent: decision fan-out to participants (``rpc_decision``, absorbed
by the applied-decisions cache) and outcome proposals at the authority's
registry (``rpc_decide``, first writer wins).  Duplicates of either --
fabric copies, coordinator retries, a resolver racing a late fan-out --
must neither re-append a slice record nor re-stamp the transaction.
"""

import pytest

from repro.config import TxnSettings
from repro.sim import Kernel, Network, Node
from repro.txn.manager import TransactionManager
from repro.txn.sharding import shard_addrs, shard_of


def make_sharded(n=2, seed=3, isolation="si"):
    k = Kernel(seed=seed)
    net = Network(k)
    settings = TxnSettings()
    settings.tm_shards = n
    settings.isolation = isolation
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


def row_on_shard(shard, n_shards, skip=0):
    """The ``skip``-th row name the keyspace hash places on ``shard``."""
    i = 0
    while True:
        if shard_of("t", f"r{i}", n_shards) == shard:
            if skip == 0:
                return f"r{i}"
            skip -= 1
        i += 1


def drive(k, gen):
    out = {}

    def proc():
        out["value"] = yield from gen

    k.run_until_complete(k.process(proc()))
    return out["value"]


# ----------------------------------------------------------------------
# single-owner commits: the same semantics on every topology
# ----------------------------------------------------------------------

#: topology -> (shard count, index of the shard that owns the write-set)
TOPOLOGIES = {
    "lone-tm": (1, 0),
    "owner-is-authority": (2, 0),
    "owner-is-peer": (2, 1),
}


class SingleOwner:
    """One TM topology plus a client whose write-sets all have one owner."""

    def __init__(self, topology):
        n, owner = TOPOLOGIES[topology]
        self.k, _net, self.tms, self.caller = make_sharded(n)
        self.n, self.tm = n, self.tms[owner]

    def row(self, i):
        return row_on_shard(self.tm.shard_index, self.n, skip=i)

    def call(self, tm, method, **kw):
        return self.caller.call(tm.addr, method, timeout=5.0, client_id="c1", **kw)

    def begin(self):
        return drive(self.k, (lambda: (yield self.call(self.tms[0], "begin")))())

    def commit(self, opened, writes, **kw):
        """The commit RPC's reply event, sent to the owner shard."""
        return self.call(
            self.tm, "commit", txn_id=opened["txn_id"],
            start_ts=opened["start_ts"], writes=writes, **kw,
        )

    def counters(self):
        return self.tm.metrics()["counters"]


@pytest.fixture(params=sorted(TOPOLOGIES))
def topo(request):
    return SingleOwner(request.param)


def test_retried_commit_returns_cached_verdict(topo):
    opened = topo.begin()
    writes = [("t", topo.row(0), "f", "v1")]

    def proc():
        first = yield topo.commit(opened, writes)
        again = yield topo.commit(opened, writes)
        return first, again

    first, again = drive(topo.k, proc())
    assert first["status"] == "committed"
    assert again == first  # same verdict, same commit timestamp
    assert topo.counters()["commits"] == 1
    assert topo.counters()["duplicate_commits"] == 1
    assert [r.commit_ts for r in topo.tm.log.store.fetch(0)] == [first["commit_ts"]]


def test_inflight_duplicate_parks_on_the_first_decision(topo):
    opened = topo.begin()
    writes = [("t", topo.row(0), "f", "v2")]

    def proc():
        # Two concurrent commits for the same transaction: the second
        # arrives while the first is still certifying/group-committing
        # and must piggyback on its outcome, not re-certify.
        ev1 = topo.commit(opened, writes)
        ev2 = topo.commit(opened, writes)
        r1 = yield ev1
        r2 = yield ev2
        return r1, r2

    r1, r2 = drive(topo.k, proc())
    assert r1 == r2
    assert r1["status"] == "committed"
    assert topo.counters()["commits"] == 1
    assert topo.counters()["duplicate_commits"] == 1


def test_distinct_transactions_are_not_deduplicated(topo):
    first, second = topo.begin(), topo.begin()

    def proc():
        r1 = yield topo.commit(first, [("t", topo.row(0), "f", "a")])
        r2 = yield topo.commit(second, [("t", topo.row(1), "f", "b")])
        return r1, r2

    r1, r2 = drive(topo.k, proc())
    assert r1["status"] == "committed"
    assert r2["status"] == "committed"
    assert r1["commit_ts"] < r2["commit_ts"]
    assert topo.counters()["commits"] == 2
    assert topo.counters()["duplicate_commits"] == 0


def test_first_committer_wins(topo):
    first, second = topo.begin(), topo.begin()  # the same snapshot
    writes = [("t", topo.row(0), "f", "x")]

    def proc():
        r1 = yield topo.commit(first, writes)
        r2 = yield topo.commit(second, writes)
        return r1, r2

    r1, r2 = drive(topo.k, proc())
    assert r1["status"] == "committed"
    assert r2 == {"status": "aborted", "conflict_key": ["t", topo.row(0), "f"]}
    assert topo.counters()["aborts"] == 1
    assert topo.tm.log.store.length == 1


def test_read_only_commit_takes_the_fast_path(topo):
    opened = topo.begin()
    reply = drive(topo.k, (lambda: (yield topo.commit(opened, [])))())
    assert reply == {
        "status": "committed", "commit_ts": opened["start_ts"], "read_only": True,
    }
    assert topo.counters()["read_only"] == 1
    assert topo.counters()["commits"] == 0
    assert topo.tm.log.store.length == 0
    assert topo.tms[0].oracle.current() == opened["start_ts"]  # no stamp


def test_fenced_client_cannot_commit(topo):
    opened = topo.begin()
    writes = [("t", topo.row(0), "f", "late")]

    def proc():
        yield topo.call(topo.tm, "fence_client")
        first = yield topo.commit(opened, writes)
        again = yield topo.commit(opened, writes)
        return first, again

    first, again = drive(topo.k, proc())
    assert first == {"status": "aborted", "conflict_key": None, "fenced": True}
    assert again == first
    assert topo.counters()["fenced_commits"] == 1
    assert topo.tm.log.store.length == 0


def test_commit_without_logging_still_certifies_and_stamps(topo):
    # The fig2a baseline (durability from the store's synchronous WAL).
    first, second = topo.begin(), topo.begin()
    writes = [("t", topo.row(0), "f", "x")]

    def proc():
        r1 = yield topo.commit(first, writes, log_commit=False)
        r2 = yield topo.commit(second, writes, log_commit=False)
        return r1, r2

    r1, r2 = drive(topo.k, proc())
    assert r1["status"] == "committed"
    assert r1["commit_ts"] == topo.tms[0].oracle.current()
    assert r2["status"] == "aborted"
    assert topo.tm.log.store.length == 0


# ----------------------------------------------------------------------
# the authority's stamp grant: a lost response must not mint twice
# ----------------------------------------------------------------------

@pytest.mark.parametrize("isolation", ["si", "ssi"])
def test_retried_stamp_returns_the_same_grant(isolation):
    k, _net, tms, caller = make_sharded(isolation=isolation)

    def stamp():
        return caller.call(
            tms[0].addr, "stamp", timeout=5.0,
            client_id="c1", txn_id=7, start_ts=0,
            writes=[("t", "r1", "f")], reads=[],
        )

    def proc():
        first = yield stamp()
        retry = yield stamp()  # the first response never arrived
        return first, retry

    first, retry = drive(k, proc())
    assert first["status"] == "committed"
    assert retry == first
    assert tms[0].oracle.current() == first["commit_ts"]  # one stamp minted
    assert tms[0].metrics()["counters"]["ts_grants"] == 1


# ----------------------------------------------------------------------
# sharded TM: duplicate cross-shard decision deliveries
# ----------------------------------------------------------------------

def test_duplicate_decision_delivery_applies_the_slice_once():
    # A participant that already applied a fanned-out COMMIT must absorb
    # re-deliveries: same ack, no second slice record, no re-stamp.
    k, _net, tms, caller = make_sharded()
    opened = drive(k, (lambda: (yield caller.call(
        tms[0].addr, "begin", timeout=5.0, client_id="c1")))())
    writes = [("t", row_on_shard(1, 2), "f", "v")]

    def proc():
        reply = yield caller.call(
            tms[1].addr, "prepare", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"],
            start_ts=opened["start_ts"], writes=writes,
        )
        assert reply["status"] == "prepared"
        decision = yield caller.call(
            tms[0].addr, "decide", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"], outcome="commit",
        )
        acks = []
        for _ in range(3):  # original delivery + two fabric duplicates
            acks.append((yield caller.call(
                tms[1].addr, "decision", timeout=5.0,
                client_id="c1", txn_id=opened["txn_id"],
                outcome="commit", commit_ts=decision["commit_ts"],
            )))
        return decision, acks

    decision, acks = drive(k, proc())
    assert acks == [True, True, True]
    assert tms[1].metrics()["counters"]["decisions_applied"] == 1
    logged = [r.commit_ts for r in tms[1].log.store.fetch(0)]
    assert logged == [decision["commit_ts"]]  # exactly one slice record
    assert tms[1]._applied[("c1", opened["txn_id"])] == {
        "outcome": "commit", "commit_ts": decision["commit_ts"],
    }


def test_duplicate_outcome_proposals_register_once():
    # The authority's registry is first-writer-wins: repeats of the same
    # proposal (coordinator retries after a lost reply) and conflicting
    # late proposals all get the original decision back, with one stamp.
    k, _net, tms, caller = make_sharded()
    opened = drive(k, (lambda: (yield caller.call(
        tms[0].addr, "begin", timeout=5.0, client_id="c1")))())

    def proc():
        first = yield caller.call(
            tms[0].addr, "decide", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"], outcome="commit",
        )
        repeat = yield caller.call(
            tms[0].addr, "decide", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"], outcome="commit",
        )
        conflicting = yield caller.call(
            tms[0].addr, "decide", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"], outcome="abort",
        )
        return first, repeat, conflicting

    first, repeat, conflicting = drive(k, proc())
    assert first["outcome"] == "commit"
    assert repeat == first
    assert conflicting == first  # the late abort is overruled
    assert tms[0].metrics()["counters"]["decide_commits"] == 1
    assert tms[0].metrics()["counters"].get("decide_aborts", 0) == 0


def test_retried_cross_shard_commit_returns_cached_verdict():
    # The classic decision cache still guards the sharded coordinator:
    # a retried cross-shard commit replays the verdict without a second
    # prepare round or a second registry proposal.
    k, _net, tms, caller = make_sharded()
    opened = drive(k, (lambda: (yield caller.call(
        tms[0].addr, "begin", timeout=5.0, client_id="c1")))())
    writes = [
        ("t", row_on_shard(0, 2), "f", "a"),
        ("t", row_on_shard(1, 2), "f", "b"),
    ]

    def proc():
        first = yield caller.call(
            tms[0].addr, "commit", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"],
            start_ts=opened["start_ts"], writes=writes,
        )
        again = yield caller.call(
            tms[0].addr, "commit", timeout=5.0,
            client_id="c1", txn_id=opened["txn_id"],
            start_ts=opened["start_ts"], writes=writes,
        )
        return first, again

    first, again = drive(k, proc())
    k.run(until=k.now + 1.0)  # let the background fan-out land on tm1
    assert first["status"] == "committed"
    assert again == first
    counters0 = tms[0].metrics()["counters"]
    counters1 = tms[1].metrics()["counters"]
    assert counters0["cross_shard_commits"] == 1
    assert counters0["duplicate_commits"] == 1
    assert counters0["decide_commits"] == 1
    assert counters1["prepares"] == 1  # the retry never re-prepared
    for tm in tms:
        logged = [r.commit_ts for r in tm.log.store.fetch(0)]
        assert logged == [first["commit_ts"]]
