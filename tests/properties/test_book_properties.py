"""Property-based tests of the recovery manager's rules: random sequences
of heartbeats, deaths, failure hooks and replays driven straight into a
:class:`~repro.core.tracking.ThresholdBook`, no kernel involved."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RecoverySettings
from repro.core.tracking import FAILED, LIVE, RECOVERING, ThresholdBook

SERVERS = ("rs0", "rs1")
CLIENTS = ("c0", "c1")
REGIONS = ("t,a", "t,b", "t,c", "t,d")
POLL = 0.5

#: Each step is one change, followed by a poll when its flag is set: the
#: book sees most changes at the next poll, failure hooks, replays and
#: marker deletes land between polls.
steps = st.lists(
    st.tuples(
        st.one_of(
            st.tuples(st.just("beat_client"), st.sampled_from(CLIENTS), st.integers(0, 5)),
            st.tuples(st.just("drop_client"), st.sampled_from(CLIENTS)),
            st.tuples(st.just("client_replayed"), st.sampled_from(CLIENTS)),
            st.tuples(st.just("beat_server"), st.sampled_from(SERVERS), st.integers(0, 60)),
            st.tuples(st.just("restart_server"), st.sampled_from(SERVERS), st.integers(0, 60)),
            st.tuples(st.just("vanish_server"), st.sampled_from(SERVERS)),
            st.tuples(
                st.just("hook"),
                st.sampled_from(SERVERS),
                st.sets(st.sampled_from(REGIONS)),
                st.integers(0, 3),
            ),
            st.tuples(st.just("replay"), st.sampled_from(REGIONS)),
            st.tuples(st.just("marker_deleted"), st.integers(0, 3)),
        ),
        st.booleans(),
    ),
    max_size=60,
)


class Cluster:
    """The znodes the book polls, as plain data."""

    def __init__(self):
        self.now = 0.0
        self.clients = {}  # id -> {"tf", "t"}
        self.servers = {}  # addr -> {"tp", "t", "inc"}
        self.incarnations = dict.fromkeys(SERVERS, 0)

    def snapshots(self, znodes, kind):
        paths = [f"/recovery/{kind}/{name}" for name in znodes]
        return paths, [{"data": dict(data)} for data in znodes.values()]


def apply(book, cluster, op):
    """One step; returns the server whose new hook was applied, if any."""
    kind = op[0]
    if kind == "beat_client":
        _, client, step = op
        if client in cluster.clients:
            cluster.clients[client].update(tf=cluster.clients[client]["tf"] + step)
        else:  # registers with a global T_F it may have read long ago
            cluster.clients[client] = {"tf": max(0, book.global_tf - step)}
        cluster.clients[client]["t"] = cluster.now
    elif kind == "drop_client":
        cluster.clients.pop(op[1], None)
    elif kind == "client_replayed":
        entry = book.clients.get(op[1])
        if entry is not None and entry.status == RECOVERING:
            book.clients.pop(op[1])
            cluster.clients.pop(op[1], None)
    elif kind == "beat_server":
        _, server, tp = op
        if server in cluster.servers:
            cluster.servers[server].update(tp=tp, t=cluster.now)
    elif kind == "restart_server":
        _, server, tp = op
        cluster.incarnations[server] += 1
        cluster.servers[server] = {
            "tp": tp, "t": cluster.now, "inc": cluster.incarnations[server]
        }
    elif kind == "vanish_server":
        cluster.servers.pop(op[1], None)
    elif kind == "hook":
        _, server, regions, failover_id = op
        if book.server_failed(server, sorted(regions), failover_id, cluster.now):
            return server
    elif kind == "replay":
        pin = book.pending_regions.get(op[1])
        if pin is not None:
            assert book.unpin(op[1], pin[0])
    elif kind == "marker_deleted":
        if book.releasing:
            book.release(*book.releasing[op[1] % len(book.releasing)])
    elif kind == "poll":
        cluster.now += POLL
        book.ingest_clients(*cluster.snapshots(cluster.clients, "clients"), cluster.now)
        book.ingest_servers(*cluster.snapshots(cluster.servers, "servers"), cluster.now)
        book.overdue_clients(cluster.now)
        book.recompute_globals()
    return None


@given(steps)
@settings(max_examples=300, deadline=None)
def test_book_rules_hold_under_any_op_sequence(sequence):
    book = ThresholdBook(RecoverySettings())
    cluster = Cluster()
    for change, then_poll in sequence:
        for op in (change, ("poll",)) if then_poll else (change,):
            check_step(book, cluster, op)


def check_step(book, cluster, op):
    """Apply one op and check the three rules across it."""
    before_tf, before_tp = book.global_tf, book.global_tp
    before_fallen = dict(book.fallen)
    dying = {}  # live incarnations this poll will find gone
    if op[0] == "poll":
        for server, entry in book.servers.items():
            znode = cluster.servers.get(server)
            if entry.status == LIVE and (
                znode is None or entry.incarnation not in (None, znode["inc"])
            ):
                dying[server] = entry.threshold
    hooked = apply(book, cluster, op)

    # Published global T_F and T_P never decrease.
    assert book.global_tf >= before_tf
    assert book.global_tp >= before_tp

    # A failed server is in the book exactly until its last pin is
    # released (its replay done and its marker deleted).
    failed = {s for s, e in book.servers.items() if e.status == FAILED}
    pinned = {s for s, _tp in book.pending_regions.values()}
    assert failed == pinned | {s for _region, s in book.releasing}

    # A dead incarnation leaves a floor at its T_P; the floor holds T_P,
    # and only its failure hook consumes it.
    for server, tp in dying.items():
        assert book.fallen[server] <= tp
    for floor in book.fallen.values():
        assert book.global_tp <= max(before_tp, floor)
    for server, floor in before_fallen.items():
        if server != hooked:
            assert book.fallen[server] <= floor
    assert hooked not in book.fallen
