"""Property-based tests for transaction-manager components."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.rng import SeededRng, zipfian_sampler
from repro.txn import SICertifier, WriteSet
from repro.txn.log import LogRecord


@given(
    st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 5)), min_size=1, max_size=60
    )
)
@settings(max_examples=200, deadline=None)
def test_certifier_matches_first_committer_wins_model(txns):
    """Sequential certify/record must equal the brute-force SI rule:
    conflict iff some write key was committed after the snapshot."""
    certifier = SICertifier(horizon=10_000)
    history = []  # (commit_ts, keys)
    next_ts = 1
    for snapshot_age, key_base in txns:
        start_ts = max(0, next_ts - 1 - snapshot_age)
        keys = [("t", f"k{key_base + i}", "f") for i in range(2)]
        expected_conflict = any(
            ts > start_ts and any(k in recorded for k in keys)
            for ts, recorded in history
        )
        got = certifier.certify(start_ts, keys)
        assert (got is not None) == expected_conflict
        if got is None:
            certifier.record(next_ts, keys)
            history.append((next_ts, set(keys)))
            next_ts += 1


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "delete"]),
            st.integers(0, 8),
            st.integers(0, 100),
        ),
        max_size=50,
    ),
    st.integers(1, 1000),
)
@settings(max_examples=200, deadline=None)
def test_writeset_stamping_reflects_last_write(ops, commit_ts):
    ws = WriteSet()
    model = {}
    for kind, key_idx, value in ops:
        row = f"r{key_idx}"
        if kind == "put":
            ws.put("t", row, "f", value)
            model[row] = value
        else:
            ws.delete("t", row, "f")
            model[row] = None
    cells = ws.stamped_cells("t", commit_ts)
    assert len(cells) == len(model)
    assert all(ts == commit_ts for _r, _c, ts, _v in cells)
    assert {r: v for r, _c, _ts, v in cells} == model
    assert [r for r, *_ in cells] == sorted(model)


@given(st.integers(1, 5000), st.floats(0.01, 0.999))
@settings(max_examples=50, deadline=None)
def test_zipfian_sampler_stays_in_domain(n, theta):
    sample = zipfian_sampler(n, theta, SeededRng(9))
    for _ in range(200):
        value = sample()
        assert 0 <= value < n


_TS = st.integers(1, 40)  # a small domain: repeats and out-of-order inserts
_LOG_OPS = st.lists(
    st.one_of(
        # (write, timestamps, honest sync?, records land rotted?)
        st.tuples(
            st.just("write"),
            st.lists(_TS, min_size=1, max_size=6),
            st.booleans(),
            st.sampled_from([False, False, False, True]),
        ),
        st.tuples(st.just("crash"), st.booleans()),  # (crash, device tears?)
        st.tuples(st.just("truncate"), st.integers(0, 45)),
        st.tuples(st.just("salvage")),
        st.tuples(st.just("fetch"), st.integers(0, 45)),
    ),
    max_size=25,
)


class _LogModel:
    """The obvious list model of one commit-log store: ``[ts, state,
    synced]`` entries ascending by timestamp, everything recomputed from
    scratch.  The durable watermark is not maintained but *derived*: the
    prefix up to the last entry an honest sync (or the platter, after a
    tear) is known to hold."""

    def __init__(self):
        self.entries = []
        self.truncated_below = 0
        self.lost = 0

    @property
    def watermark(self):
        return max(
            (i + 1 for i, entry in enumerate(self.entries) if entry[2]), default=0
        )

    def write(self, timestamps, honest, rotted):
        for ts in timestamps:
            if all(entry[0] != ts for entry in self.entries):
                # A record that lands under the watermark is covered by it.
                covered = any(e[2] for e in self.entries if e[0] > ts)
                self.entries.append([ts, "corrupt" if rotted else "ok", covered])
                self.entries.sort()
        if honest:
            for entry in self.entries:
                entry[2] = True

    def crash(self, tears, survivors):
        """``survivors`` is what the store retained: which prefix of the
        volatile tail a tearing device landed is the device's draw."""
        tail = len(self.entries) - self.watermark
        if tail == 0:
            return
        if not tears:
            self.lost += tail
            del self.entries[self.watermark :]
            return
        keep = survivors - self.watermark - 1
        assert 0 <= keep < tail
        self.lost += tail - keep - 1
        del self.entries[survivors:]
        self.entries[-1][1] = "torn"
        for entry in self.entries:  # what a tear leaves is on the platter
            entry[2] = True

    def salvage(self):
        for index, entry in enumerate(self.entries):
            if entry[1] != "ok":
                del self.entries[index:]
                return

    def truncate(self, up_to):
        dropped = len([e for e in self.entries if e[0] < up_to])
        if dropped:
            del self.entries[:dropped]
            self.truncated_below = max(self.truncated_below, up_to)
        return dropped


@given(st.sampled_from(["tm", "shard"]), _LOG_OPS)
@settings(max_examples=300, deadline=None)
def test_log_fetch_truncate_model(host, ops):
    """A commit-log store -- hosted by the TM or by a logger shard --
    behaves like the obvious list model under writes (ascending,
    out-of-order, repeated), lying and honest syncs, power cuts with and
    without a tear, truncate, salvage and fetch: ``fetch(after)`` is
    exactly the model's verified records in timestamp order, nothing at
    or past the first torn/corrupt record is returned, and the durable
    watermark covers exactly the records the model knows are synced."""
    from repro.config import TxnSettings
    from repro.sim import Kernel, Network, Node
    from repro.txn.log import RecoveryLog
    from repro.txn.loggers import LoggerShard

    k = Kernel()
    txn_settings = TxnSettings()
    if host == "tm":
        node = Node(k, Network(k), "tm")
        log = RecoveryLog(node, txn_settings, ordered=False)
        store = log.store
    else:
        node = LoggerShard(k, Network(k), "log0", settings=txn_settings)
        store = node.store
    model = _LogModel()

    def write(timestamps):
        records = [LogRecord(ts, "c", {"t": []}, nbytes=64) for ts in timestamps]
        if not node.alive:
            node.revive()
            if host == "tm":
                log.restart()
            model.salvage()  # a revived host cuts a damaged tail off first
        if host == "tm":
            k.run_until_complete(k.all_of([log.append(r) for r in records]))
        else:
            wire = [r.to_wire() for r in records]
            k.run_until_complete(k.process(node.rpc_shard_append("tm", wire)))

    for op, *args in ops:
        if op == "write":
            timestamps, honest, rotted = args
            store.disk.configure_faults(
                lost_fsync_probability=0.0 if honest else 1.0,
                corruption_probability=1.0 if rotted else 0.0,
            )
            write(timestamps)
            model.write(timestamps, honest, rotted)
        elif op == "crash":
            store.disk.configure_faults(torn_write_probability=float(args[0]))
            node.crash()
            model.crash(args[0], survivors=store.length)
        elif op == "truncate":
            assert store.truncate(args[0]) == model.truncate(args[0])
        elif op == "salvage":
            report = store.salvage()
            before = len(model.entries)
            model.salvage()
            assert (report.total, report.kept) == (before, len(model.entries))
        else:
            model.salvage()  # a fetch never trusts a damaged medium
            got = [r.commit_ts for r in store.fetch(args[0])]
            assert got == [e[0] for e in model.entries if e[0] > args[0]]
        on_medium = [(r.payload.commit_ts, r.state) for r in store.file.records]
        assert on_medium == [(ts, state) for ts, state, _synced in model.entries]
        assert store.length == len(model.entries)
        assert store.durable_length == model.watermark <= store.length
        assert store.stats.lost_unsynced == model.lost
        assert store.truncated_below == model.truncated_below
        assert store.last_ts == (
            model.entries[-1][0] if model.entries else model.truncated_below
        )
