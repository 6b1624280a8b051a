"""The independent transaction manager.

Owns the timestamp oracle, snapshot-isolation certification, and the
recovery log.  Under the paper's durability model a transaction is
*committed* the moment its write-set (with commit timestamp and client id)
is durable in this log -- nothing needs to have reached the key-value store
yet.

The ``log_commit=False`` path supports the fig2a baseline, where durability
comes from the store's synchronous WAL instead and the TM only certifies
and stamps.
"""

from __future__ import annotations

import heapq
import itertools
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import TxnSettings
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import tracer_for
from repro.sim.events import Interrupt
from repro.sim.kernel import Kernel
from repro.sim.network import Network
from repro.sim.node import Node
from repro.sim.resource import Resource
from repro.sim.retry import RetryPolicy
from repro.txn.concurrency import SICertifier, SSIWindow
from repro.txn.log import LogRecord, RecoveryLog, mirror_log_position
from repro.txn.sharding import shard_of
from repro.txn.timestamps import TimestampOracle

#: A client-submitted write on the wire: (table, row, column, value).
WireWrite = Tuple[str, str, str, object]


def _read_pairs(reads):
    """Wire reads -- ``(table, row, column, version_observed)`` 4-tuples,
    shipped by SSI clients -- to the rw-edge window's
    ``((table, row, column), version)`` pairs."""
    if not reads:
        return []
    return [((r[0], r[1], r[2]), r[3]) for r in reads]

#: Shard-to-shard RPC retry (prepare / decide / stamp): bounded, so a
#: coordinator stuck behind a dead peer eventually surfaces the failure to
#: the client's own retry loop instead of hanging forever.
SHARD_RPC_RETRY = RetryPolicy(
    base_delay=0.05, multiplier=2.0, max_delay=1.0, jitter=0.2, max_attempts=5
)

#: Decision fan-out never gives up inside one attempt round; the outer
#: loop in ``_fanout_decision`` keeps going until every participant has
#: the outcome (the non-blocking guarantee's delivery arm).
SHARD_FANOUT_RETRY = RetryPolicy(
    base_delay=0.1, multiplier=2.0, max_delay=1.0, jitter=0.2, max_attempts=4
)

#: Oracle re-seed margin after an authority-shard crash: timestamps may
#: have been granted (over ``stamp``) and lost with their callers, so
#: the reborn counter skips far past everything any survivor witnessed --
#: re-minting an old timestamp would fabricate duplicate commit stamps.
TS_RESEED_MARGIN = 100_000


class TransactionManager(Node):
    """Transaction manager node (co-hostable with the recovery manager by
    sharing a CPU resource, as in the paper's evaluation setup)."""

    def __init__(
        self,
        kernel: Kernel,
        net: Network,
        addr: str = "tm",
        settings: Optional[TxnSettings] = None,
        shared_cpu: Optional[Resource] = None,
        logger_shards: Sequence[str] = (),
        shard_index: int = 0,
        shard_addrs: Optional[List[str]] = None,
    ) -> None:
        super().__init__(kernel, net, addr)
        self.settings = settings or TxnSettings()
        #: Topology: ``shard_addrs`` lists every TM shard, authority first;
        #: a lone TM is the one-shard case and owns every key.
        self.shard_index = shard_index
        self.shard_addrs = list(shard_addrs) if shard_addrs else [addr]
        self.n_shards = len(self.shard_addrs)
        #: Shard 0 is the timestamp authority and decision registrar.
        self.is_authority = shard_index == 0
        self.oracle = TimestampOracle()
        self.certifier = SICertifier(horizon=self.settings.certification_horizon)
        if self.settings.isolation not in ("si", "ssi"):
            raise ValueError(
                f"unknown isolation level: {self.settings.isolation!r}"
            )
        #: The SSI rw-antidependency window (``isolation="ssi"`` only).
        #: Serializability is a global property, so the window lives where
        #: every commit decision already lands: the authority shard, whose
        #: oracle stamps and decision registry serialize all commits.
        self.ssi: Optional[SSIWindow] = None
        if self.settings.isolation == "ssi" and self.is_authority:
            self.ssi = SSIWindow(horizon=self.settings.certification_horizon)
        if self.n_shards > 1:
            if logger_shards:
                # Prepares and decisions force the zero-hop member's
                # device, which a log on logger shards does not have.
                raise ValueError("tm_shards > 1 is incompatible with log_shards")
            if self.settings.snapshot_visibility == "flushed":
                raise ValueError(
                    "tm_shards > 1 requires snapshot_visibility='latest'"
                )
        self.log = RecoveryLog(
            self, self.settings, ordered=self.n_shards == 1, logger_shards=logger_shards
        )
        self.cpu = shared_cpu or Resource(kernel, capacity=self.settings.rpc_workers)
        self._txn_ids = itertools.count(1)
        #: Registry behind all TM statistics (see ``metrics()``).
        self.registry = MetricsRegistry("tm", addr)
        # Hot-path counters, held directly so increments skip the
        # registry lookup.  Read them via ``metrics()["counters"]``.
        (
            self._n_begins,
            self._n_commits,
            self._n_aborts,
            self._n_read_only,
            self._n_duplicate_commits,
            self._n_prepares,
            self._n_decide_commits,
            self._n_decide_aborts,
            self._n_cross_shard_commits,
            self._n_decisions_applied,
            self._n_indoubt_resolved,
            self._n_ts_grants,
        ) = self.registry.counters(
            "begins", "commits", "aborts", "read_only", "duplicate_commits",
            "prepares", "decide_commits", "decide_aborts",
            "cross_shard_commits", "decisions_applied", "indoubt_resolved",
            "ts_grants",
        )
        self._tracer = tracer_for(kernel)
        # Idempotent commit handling: remember each transaction's verdict
        # so a retried (response lost) or duplicated commit request
        # returns the original decision instead of re-certifying -- a
        # second certification would conflict with the transaction's own
        # first commit and double-count it.  In-flight duplicates park on
        # an event until the first request decides.
        self._decisions: "OrderedDict[Tuple[str, int], dict]" = OrderedDict()
        self._deciding: Dict[Tuple[str, int], "object"] = {}
        self._aborted_seen: "OrderedDict[Tuple[str, int], None]" = OrderedDict()
        # Flushed-prefix visibility tracking ("flushed" snapshot mode): a
        # global analogue of the client-side FQ/FQ' queues.
        self._visible_ts = 0
        self._unflushed: List[int] = []  # committed update txns, min-heap
        self._flushed_set: set = set()
        # Client fencing (recovery-manager hardening of Algorithm 2): a
        # suspected-dead client may still have one last commit racing the
        # recovery manager's log fetch.  Once fenced, a client's further
        # commits are rejected, and the fence call returns only after its
        # in-flight commits drain -- so a post-fence log fetch sees every
        # commit that will ever be acknowledged to that client.
        self._fenced: set = set()
        self._inflight_commits: Dict[str, int] = {}
        # Highest commit timestamp this shard has witnessed anywhere
        # (grants, decisions, peers) -- the authority re-seed floor.
        self._max_seen_ts = 0
        # Keys held by prepared-but-undecided transactions: certifying
        # against a reserved key conflicts, so an in-doubt write-set
        # can never be silently overwritten while its fate is open.
        self._reserved: Dict[Tuple[str, str, str], Tuple[str, int]] = {}
        # The durable prepare journal (stable storage: survives a
        # crash).  One entry per prepared-here transaction, dropped
        # when its decision is applied.
        self._prepared: Dict[Tuple[str, int], dict] = {}
        # Decisions already applied to this shard's slice, for
        # idempotent duplicate decision deliveries.
        self._applied: "OrderedDict[Tuple[str, int], dict]" = OrderedDict()
        # Authority only: the durable first-writer-wins decision
        # registry -- the replicated commit decision of Gray &
        # Lamport's non-blocking commit, collapsed onto the authority
        # shard's stable storage.  Any participant (or the recovery
        # manager, transitively) can finish an in-doubt transaction
        # by racing an abort proposal against the coordinator here.
        self._registry: "OrderedDict[Tuple[str, int], dict]" = OrderedDict()
        self._registry_gates: Dict[Tuple[str, int], object] = {}
        # Authority only: remembered ``stamp`` grants, so a retried
        # request (response lost) returns the original stamp instead of
        # minting a second one -- under SSI a second pass would also see
        # the first admission as a concurrent committer and self-conflict.
        self._grants: "OrderedDict[Tuple[str, int], dict]" = OrderedDict()
        if self.n_shards > 1:
            # A lone shard can never hold a foreign prepare.
            self.spawn(self._indoubt_resolver(), name="indoubt-resolver")

    # ------------------------------------------------------------------
    # transaction lifecycle
    # ------------------------------------------------------------------
    def rpc_begin(self, sender: str, client_id: str):
        """Open a transaction: allocate an id and a snapshot timestamp.

        The snapshot is the newest commit timestamp, or -- in "flushed"
        visibility mode -- the newest timestamp whose write-set (and all
        earlier ones) is fully in the store, so reads cannot slip past an
        in-flight deferred flush.
        """
        yield from self.cpu.use(self.settings.op_service_time)
        self._n_begins.inc()
        if self.settings.snapshot_visibility == "flushed":
            start_ts = self._visible_ts
        else:
            start_ts = self.oracle.current()
        return {"txn_id": next(self._txn_ids), "start_ts": start_ts}

    def rpc_commit(
        self,
        sender: str,
        client_id: str,
        txn_id: int,
        start_ts: int,
        writes: List[WireWrite],
        log_commit: bool = True,
        reads: Optional[List] = None,
    ):
        """Certify and commit a transaction.

        Returns ``{"status": "committed", "commit_ts": ts}`` or
        ``{"status": "aborted", "conflict_key": key}``.  With
        ``log_commit`` the reply is sent only after the write-set is
        durable in the recovery log (group commit).  ``reads`` is the
        transaction's read set -- ``(table, row, column,
        version_observed)`` tuples -- shipped by clients only under
        ``isolation="ssi"``, where certification also tracks
        rw-antidependencies and rejects fractured snapshots.

        Idempotent per ``(client_id, txn_id)``: repeats -- whether from a
        client retry after a lost response or a fabric-level duplicate --
        return the original verdict and never certify or log twice.
        """
        key = (client_id, txn_id)
        cached = self._decisions.get(key)
        if cached is not None:
            self._n_duplicate_commits.inc()
            return dict(cached)
        gate = self._deciding.get(key)
        if gate is not None:
            # The first request is still certifying or waiting on the
            # group-commit sync; piggyback on its outcome.
            self._n_duplicate_commits.inc()
            reply = yield gate
            return dict(reply)
        if client_id in self._fenced:
            # Fenced after being declared dead: nothing from this client
            # may enter the log anymore, or the recovery replay that
            # already fetched it would miss the record forever.  The
            # verdict is cached so duplicates stay consistent.
            self._n_aborts.inc()
            self.registry.counter("fenced_commits").inc()
            reply = {"status": "aborted", "conflict_key": None, "fenced": True}
            self._decisions[key] = reply
            return dict(reply)
        gate = self.kernel.event()
        self._deciding[key] = gate
        self._inflight_commits[client_id] = (
            self._inflight_commits.get(client_id, 0) + 1
        )
        try:
            try:
                reply = yield from self._decide_commit(
                    client_id, txn_id, start_ts, writes, log_commit, reads
                )
            except Interrupt:
                self._deciding.pop(key, None)
                raise
            except Exception as exc:
                self._deciding.pop(key, None)
                if not gate.triggered:
                    gate.fail(exc)
                raise
        finally:
            left = self._inflight_commits.get(client_id, 0) - 1
            if left <= 0:
                self._inflight_commits.pop(client_id, None)
            else:
                self._inflight_commits[client_id] = left
        self._deciding.pop(key, None)
        self._decisions[key] = reply
        while len(self._decisions) > self.settings.commit_cache_size:
            self._decisions.popitem(last=False)
        if gate.callbacks:  # duplicates wait; nobody else can find the gate
            gate.succeed(reply)
        return dict(reply)

    def _decide_commit(
        self,
        client_id: str,
        txn_id: int,
        start_ts: int,
        writes: List[WireWrite],
        log_commit: bool,
        reads: Optional[List] = None,
    ):
        """Decide one commit: the read-only fast path, the single-owner
        commit (:meth:`_commit_here`), or -- when the write-set's owners
        span shards -- the cross-shard coordinator.  (Generator.)"""
        key = (client_id, txn_id)
        certify_span = self._tracer.begin(
            "commit.certify", txn=f"{client_id}:{txn_id}"
        )
        yield from self.cpu.use(self.settings.op_service_time)
        if not writes:
            if self.ssi is not None and reads:
                # Under SSI even a read-only transaction certifies: its
                # rw-edges are what make Fekete's read-only anomaly
                # possible (clients route read-only commits to the
                # authority shard, so the window is always local here).
                # No stamp is minted: the snapshot stays the serialization
                # point.
                grant = self._mint(start_ts, (), reads, read_only=True)
                if grant["status"] == "aborted":
                    self._n_aborts.inc()
                    certify_span.end(outcome="aborted")
                    return grant
            self._n_read_only.inc()
            certify_span.end(outcome="read_only")
            return {"status": "committed", "commit_ts": start_ts, "read_only": True}
        applied = self._applied.get(key)
        if applied is not None:
            # A resolver (or an earlier incarnation of this coordinator)
            # already finished this transaction; honour that outcome.
            certify_span.end(outcome=applied["outcome"])
            return self._reply_from_outcome(applied)
        slices: Dict[int, List[WireWrite]] = {}
        for write in writes:
            slices.setdefault(
                shard_of(write[0], write[1], self.n_shards), []
            ).append(write)
        if set(slices) == {self.shard_index}:
            reply = yield from self._commit_here(
                key, start_ts, writes, log_commit, certify_span, reads
            )
        else:
            reply = yield from self._coordinate_cross_shard(
                key, start_ts, slices, certify_span, reads
            )
        return reply

    @staticmethod
    def _reply_from_outcome(outcome: dict) -> dict:
        if outcome["outcome"] == "commit":
            return {"status": "committed", "commit_ts": outcome["commit_ts"]}
        return {"status": "aborted", "conflict_key": outcome.get("conflict_key")}

    @staticmethod
    def _keys(writes) -> List[Tuple[str, str, str]]:
        return [(table, row, column) for table, row, column, _value in writes]

    @staticmethod
    def _log_record(commit_ts: int, client_id: str, writes) -> LogRecord:
        """The log record of ``writes`` (a whole write-set or one shard's
        slice of it) committed at ``commit_ts``."""
        cells_by_table: Dict[str, List] = {}
        for table, row, column, value in writes:
            cells_by_table.setdefault(table, []).append(
                (row, column, commit_ts, value)
            )
        return LogRecord(
            commit_ts=commit_ts,
            client_id=client_id,
            cells_by_table=cells_by_table,
            nbytes=max(96 * len(writes), 96),
        )

    def _certify(self, start_ts: int, keys, txn_key):
        """Certification plus the reservation check: a key held by another
        prepared-but-undecided transaction conflicts conservatively."""
        for wkey in keys:
            holder = self._reserved.get(wkey)
            if holder is not None and holder != txn_key:
                self.certifier.conflicts += 1
                return wkey
        return self.certifier.certify(start_ts, keys)

    def _reserve(self, keys, txn_key) -> None:
        for wkey in keys:
            self._reserved[wkey] = txn_key

    def _release(self, keys, txn_key) -> None:
        for wkey in keys:
            if self._reserved.get(wkey) == txn_key:
                del self._reserved[wkey]

    def _note_ts(self, ts: Optional[int]) -> None:
        if ts is not None and ts > self._max_seen_ts:
            self._max_seen_ts = ts

    def _mint(self, start_ts, wkeys, reads, read_only=False) -> dict:
        """The authority's stamping step: the SSI rw-edge check (when the
        window exists), the globally ordered commit stamp, the window
        admission.  A plain call with no yield, so the three are atomic
        under the event loop.  A ``read_only`` transaction takes no stamp:
        its reads enter the window at the newest one.  Returns a
        ``committed`` grant carrying the stamp, or an ``aborted`` one
        carrying the witnessing key."""
        rpairs = _read_pairs(reads)
        if self.ssi is not None:
            conflict = self.ssi.check(start_ts, wkeys, rpairs)
            if conflict is not None:
                self.registry.counter("ssi_aborts").inc()
                return {
                    "status": "aborted",
                    "conflict_key": list(conflict),
                    "ssi": True,
                }
        ts = self.oracle.current() if read_only else self.oracle.next()
        self._note_ts(ts)
        if self.ssi is not None:
            self.ssi.admit(start_ts, ts, wkeys, rpairs)
        return {"status": "committed", "commit_ts": ts}

    def _stamp(self, key, start_ts, keys, reads):
        """A single-owner commit's grant: minted here on the authority,
        fetched from it over the ``stamp`` RPC on any other shard."""
        if self.is_authority:
            return self._mint(start_ts, keys, reads)
        # Hold the keys while fetching the stamp so a concurrent
        # certification cannot slip a conflicting commit in between.
        self._reserve(keys, key)
        try:
            grant = yield from self.call_with_retry(
                self.shard_addrs[0], "stamp",
                policy=SHARD_RPC_RETRY, timeout=5.0,
                client_id=key[0], txn_id=key[1],
                start_ts=start_ts, writes=keys, reads=reads or [],
            )
        finally:
            self._release(keys, key)
        self._note_ts(grant.get("commit_ts"))
        return grant

    def _commit_here(self, key, start_ts, writes, log_commit, certify_span,
                     reads=None):
        """Commit a write-set owned entirely by this shard -- the paper's
        commit: certify, stamp, one group-commit append."""
        keys = self._keys(writes)
        conflict = self._certify(start_ts, keys, key)
        if conflict is not None:
            self._n_aborts.inc()
            certify_span.end(outcome="aborted")
            return {"status": "aborted", "conflict_key": list(conflict)}
        grant = yield from self._stamp(key, start_ts, keys, reads)
        if grant["status"] == "aborted":
            self._n_aborts.inc()
            certify_span.end(outcome="aborted")
            return grant
        commit_ts = grant["commit_ts"]
        self.certifier.record(commit_ts, keys)
        self._n_commits.inc()
        certify_span.end(outcome="committed")
        if self.settings.snapshot_visibility == "flushed":
            heapq.heappush(self._unflushed, commit_ts)
        if log_commit:
            # Queue wait + disk sync, all in one stage: the client is
            # unblocked exactly when this ends.
            append_span = certify_span.child("commit.log_append")
            yield self.log.append(self._log_record(commit_ts, key[0], writes))
            append_span.end()
        return {"status": "committed", "commit_ts": commit_ts}

    # ------------------------------------------------------------------
    # cross-shard commit: prepare, decide at the authority, apply
    # ------------------------------------------------------------------
    def _coordinate_cross_shard(self, key, start_ts, slices, certify_span,
                                reads=None):
        """Coordinate a cross-shard commit (this shard = lowest owner).

        Stage 1: prepare every owner slice (durable journal + key
        reservations).  Stage 2: register the decision at the authority's
        first-writer-wins registry -- the single durable fact that
        decides the transaction.  Stage 3: apply the own slice (ack
        point) and fan the decision out to the other owners in the
        background.  A crash at any stage leaves participants able to
        finish via the registry; no stage blocks on this coordinator
        surviving.

        The commit proposal carries the transaction's full read- and
        write-key sets, so under SSI the registrar's durable decision
        *is* the rw-edge certification verdict: a proposed commit that
        would complete a dangerous structure is registered as an abort,
        and every participant (including an in-doubt resolver racing
        this coordinator) learns the same outcome from the registry.
        """
        client_id, txn_id = key
        own = slices.get(self.shard_index)
        outcome, conflict, decided = "commit", None, None
        if own is not None:
            local = yield from self._prepare_here(
                key, start_ts, own, coordinator=self.addr
            )
            if local["status"] == "aborted":
                outcome, conflict = "abort", local.get("conflict_key")
            elif local["status"] == "decided":
                decided = local
        if outcome == "commit" and decided is None:
            for index in sorted(slices):
                if index == self.shard_index:
                    continue
                reply = yield from self.call_with_retry(
                    self.shard_addrs[index], "prepare",
                    policy=SHARD_RPC_RETRY, timeout=5.0,
                    size=max(96 * len(slices[index]), 96),
                    client_id=client_id, txn_id=txn_id,
                    start_ts=start_ts, writes=slices[index],
                )
                if reply["status"] == "aborted":
                    outcome, conflict = "abort", reply.get("conflict_key")
                    break
                if reply["status"] == "decided":
                    decided = reply
                    break
        proposal = decided["outcome"] if decided is not None else outcome
        keysets = {}
        if proposal == "commit":
            keysets = dict(
                start_ts=start_ts,
                writes=[
                    wkey
                    for index in sorted(slices)
                    for wkey in self._keys(slices[index])
                ],
                reads=reads or [],
            )
        decision = yield from self._decide(key, proposal, **keysets)
        # Ack point: the decision is durably registered and (below) the
        # local slice is durable.  Delivery to the other owners rides a
        # background process that outlives this RPC.
        yield from self._apply_decision(key, decision)
        others = [
            self.shard_addrs[index]
            for index in sorted(slices)
            if index != self.shard_index
        ]
        if others:
            fanout = self.spawn(
                self._fanout_decision(key, decision, others),
                name="decision-fanout",
            )
            fanout.defuse()
        if decision["outcome"] == "commit":
            self._n_commits.inc()
            self._n_cross_shard_commits.inc()
            certify_span.end(outcome="committed")
            return {"status": "committed", "commit_ts": decision["commit_ts"]}
        self._n_aborts.inc()
        certify_span.end(outcome="aborted")
        if conflict is None and decision.get("conflict_key") is not None:
            # An SSI-converted proposal: the registrar turned the commit
            # into an abort and recorded the witnessing key.
            conflict = tuple(decision["conflict_key"])
        return {
            "status": "aborted",
            "conflict_key": list(conflict) if conflict is not None else None,
        }

    def _prepare_here(self, key, start_ts, writes, coordinator):
        """Certify and durably journal one owner slice (stage 1)."""
        applied = self._applied.get(key)
        if applied is not None:
            return dict(applied, status="decided")
        if key in self._prepared:
            return {"status": "prepared"}
        keys = self._keys(writes)
        conflict = self._certify(start_ts, keys, key)
        if conflict is not None:
            return {"status": "aborted", "conflict_key": list(conflict)}
        self._reserve(keys, key)
        try:
            yield from self.log.force(max(96 * len(writes), 96))
        except BaseException:
            self._release(keys, key)
            raise
        # Journalled only after the sync: durable iff the platter has it.
        self._prepared[key] = {
            "client_id": key[0],
            "txn_id": key[1],
            "start_ts": start_ts,
            "writes": [tuple(write) for write in writes],
            "coordinator": coordinator,
            "t": self.kernel.now,
        }
        self._n_prepares.inc()
        return {"status": "prepared"}

    def rpc_prepare(self, sender, client_id, txn_id, start_ts, writes):
        """Participant side of stage 1."""
        yield from self.cpu.use(self.settings.op_service_time)
        self._note_ts(start_ts)
        reply = yield from self._prepare_here(
            (client_id, txn_id), start_ts,
            [tuple(write) for write in writes], coordinator=sender,
        )
        return reply

    def _register_decision(self, key, proposal, start_ts=None, writes=(),
                           reads=None):
        """First-writer-wins durable decision registration (stage 2).

        The first proposal to reach stable storage -- the coordinator's
        commit or a resolver's presumed abort -- IS the transaction's
        outcome; every later proposal gets that original back.  A commit
        proposal takes its globally-ordered stamp here (:meth:`_mint`,
        over the transaction's key sets), so under SSI a dangerous
        proposal is registered as an abort.
        """
        entry = self._registry.get(key)
        if entry is not None:
            return dict(entry)
        gate = self._registry_gates.get(key)
        if gate is not None:
            entry = yield gate
            return dict(entry)
        gate = self.kernel.event()
        self._registry_gates[key] = gate
        try:
            entry = {"outcome": proposal, "commit_ts": None}
            if proposal == "commit":
                grant = self._mint(start_ts, writes, reads)
                if grant["status"] == "committed":
                    entry["commit_ts"] = grant["commit_ts"]
                else:
                    entry = {
                        "outcome": "abort",
                        "commit_ts": None,
                        "conflict_key": grant["conflict_key"],
                        "ssi": True,
                    }
            yield from self.log.force(128)
        except BaseException as exc:
            self._registry_gates.pop(key, None)
            if not gate.triggered and not isinstance(exc, Interrupt):
                gate.fail(exc)
            raise
        self._registry[key] = entry
        while len(self._registry) > self.settings.commit_cache_size:
            self._registry.popitem(last=False)
        if entry["outcome"] == "commit":
            self._n_decide_commits.inc()
        else:
            self._n_decide_aborts.inc()
        self._registry_gates.pop(key, None)
        if gate.callbacks:  # duplicates wait; nobody else can find the gate
            gate.succeed(dict(entry))
        return dict(entry)

    def _decide(self, key, proposal, **keysets):
        """Put ``proposal`` to the decision registry -- here on the
        authority, over the ``decide`` RPC from any other shard -- and
        return the registered outcome."""
        if self.is_authority:
            decision = yield from self._register_decision(
                key, proposal, **keysets
            )
            return decision
        decision = yield from self.call_with_retry(
            self.shard_addrs[0], "decide",
            policy=SHARD_RPC_RETRY, timeout=5.0,
            client_id=key[0], txn_id=key[1], outcome=proposal, **keysets,
        )
        self._note_ts(decision.get("commit_ts"))
        return decision

    def rpc_decide(self, sender, client_id, txn_id, outcome,
                   start_ts=None, writes=(), reads=None):
        """Registrar RPC: a coordinator's proposal (a commit carries the
        key sets the stamp is minted over) or a resolver's abort."""
        if not self.is_authority:
            raise ValueError(f"{self.addr} is not the decision registrar")
        yield from self.cpu.use(self.settings.op_service_time)
        decision = yield from self._register_decision(
            (client_id, txn_id), outcome, start_ts=start_ts,
            writes=[tuple(wkey) for wkey in writes], reads=reads,
        )
        return decision

    def rpc_stamp(self, sender, client_id, txn_id, start_ts, writes, reads):
        """Authority RPC: the grant for a commit owned by another shard
        (see :meth:`_mint`).  Idempotent per ``(client_id, txn_id)``: a
        retried request returns the original grant -- a second stamp
        would be a hole in the commit order, and under SSI a second
        certification would see the first admission as a concurrent
        committer and self-conflict.
        """
        if not self.is_authority:
            raise ValueError(f"{self.addr} is not the timestamp authority")
        key = (client_id, txn_id)
        cached = self._grants.get(key)
        if cached is not None:
            return dict(cached)
        yield from self.cpu.use(self.settings.op_service_time)
        cached = self._grants.get(key)
        if cached is not None:
            # A duplicate decided while this one waited on the CPU.
            return dict(cached)
        grant = self._mint(start_ts, [tuple(wkey) for wkey in writes], reads)
        if grant["status"] == "committed":
            self._n_ts_grants.inc()
        self._grants[key] = grant
        while len(self._grants) > self.settings.commit_cache_size:
            self._grants.popitem(last=False)
        return dict(grant)

    def _apply_decision(self, key, decision):
        """Apply a registered decision to this shard's slice (stage 3).

        Idempotent under duplicate deliveries and crash-safe: the prepare
        journal entry (and its reservations) survive until the slice
        record is durable, so a crash mid-apply leaves the transaction
        resolvable, never half-applied.
        """
        if key in self._applied:
            return
        entry = self._prepared.get(key)
        if entry is not None:
            keys = self._keys(entry["writes"])
            if decision["outcome"] == "commit":
                commit_ts = decision["commit_ts"]
                self._note_ts(commit_ts)
                yield self.log.append(
                    self._log_record(commit_ts, entry["client_id"], entry["writes"])
                )
                self.certifier.record(commit_ts, keys)
            self._prepared.pop(key, None)
            self._release(keys, key)
            self._n_decisions_applied.inc()
        self._applied[key] = {
            "outcome": decision["outcome"],
            "commit_ts": decision.get("commit_ts"),
        }
        while len(self._applied) > self.settings.commit_cache_size:
            self._applied.popitem(last=False)

    def rpc_decision(self, sender, client_id, txn_id, outcome, commit_ts=None):
        """Participant side of stage 3 (fan-out delivery).  Duplicate
        deliveries -- fabric duplicates or coordinator retries -- are
        absorbed by ``_apply_decision``'s idempotence."""
        yield from self.cpu.use(self.settings.op_service_time)
        yield from self._apply_decision(
            (client_id, txn_id),
            {"outcome": outcome, "commit_ts": commit_ts},
        )
        return True

    def _fanout_decision(self, key, decision, addrs):
        """Deliver the decision to every other owner, retrying forever."""
        client_id, txn_id = key
        for addr in addrs:
            while True:
                try:
                    yield from self.call_with_retry(
                        addr, "decision",
                        policy=SHARD_FANOUT_RETRY, timeout=5.0,
                        client_id=client_id, txn_id=txn_id,
                        outcome=decision["outcome"],
                        commit_ts=decision.get("commit_ts"),
                    )
                    break
                except Interrupt:
                    return
                except Exception:
                    yield self.sleep(0.25)
        self.registry.counter("decision_fanouts").inc()

    def _indoubt_resolver(self):
        """Background arm of the non-blocking guarantee: any prepared
        transaction whose decision has not arrived within the timeout is
        resolved against the registry by proposing abort -- if the
        coordinator's commit got there first, that is what comes back."""
        try:
            while True:
                yield self.sleep(
                    max(self.settings.indoubt_resolve_timeout / 2, 0.05)
                )
                yield from self._resolve_indoubt(
                    min_age=self.settings.indoubt_resolve_timeout
                )
        except Interrupt:
            return

    def _resolve_indoubt(self, min_age: float = 0.0):
        now = self.kernel.now
        for key, entry in list(self._prepared.items()):
            if key not in self._prepared:
                continue  # a decision landed while we resolved others
            if now - entry["t"] < min_age:
                continue
            try:
                decision = yield from self._decide(key, "abort")
            except Interrupt:
                raise
            except Exception:
                continue  # registrar unreachable; next pass retries
            yield from self._apply_decision(key, decision)
            self._n_indoubt_resolved.inc()

    def _latest_known_ts(self) -> int:
        return max(self.oracle.current(), self._max_seen_ts, self.log.last_ts)

    # ------------------------------------------------------------------
    # crash and restart
    # ------------------------------------------------------------------
    def on_crash(self) -> None:
        """Drop the volatile coordination gates *at* crash time.

        Interrupted handlers normally unwind their own gates, but a
        handler killed without unwinding (or a counter it held) must not
        survive into the next incarnation: a request arriving between
        revive() and the spawned restart process's first step would park
        forever on a dead gate, or a stale in-flight count would wedge
        ``fence_client``.  Clearing here instead of in :meth:`restart`
        also closes the converse race -- a restart-time clear would wipe
        gates those early post-revive handlers legitimately own.
        """
        self._deciding.clear()
        self._inflight_commits.clear()
        self._registry_gates.clear()
        self._grants.clear()
        if self.ssi is not None:
            # The rw-edge window is volatile: read-sets are never logged.
            # Replace it immediately, floored past every pre-crash stamp,
            # so a request that sneaks in between revive() and the restart
            # process's first step cannot certify against a hole --
            # snapshots taken before the crash abort conservatively.
            self.ssi = SSIWindow(horizon=self.settings.certification_horizon)
            self.ssi.raise_floor(self._latest_known_ts() + TS_RESEED_MARGIN)

    def restart(self):
        """Revive this shard after a crash (generator; spawn post-revive).

        Durable state -- the commit log, the prepare journal, the
        decision registry -- survived the crash; this rebuilds everything
        volatile: the group committer, key reservations (mirroring the
        journal), the certification window (from retained log records,
        floored at the truncation point so stale snapshots abort
        conservatively), and, on the authority, a timestamp counter
        re-seeded safely past every timestamp any survivor has seen.
        """
        self.log.restart()
        self._reserved = {}
        for key, entry in self._prepared.items():
            self._reserve(self._keys(entry["writes"]), key)
        certifier = SICertifier(horizon=self.settings.certification_horizon)
        certifier._floor_ts = self.log.truncated_below
        for record in (yield from self.log.fetch_gen(0)):
            keys = [
                (table, row, column)
                for table, cells in sorted(record.cells_by_table.items())
                for row, column, _ts, _value in cells
            ]
            certifier.record(record.commit_ts, keys)
        self.certifier = certifier
        if self.is_authority:
            # Local re-seed first so requests arriving mid-restart are
            # already safe; peers can only push the counter higher.
            self.oracle = TimestampOracle(
                start=self._latest_known_ts() + TS_RESEED_MARGIN
            )
        if self.n_shards > 1:
            self.spawn(self._indoubt_resolver(), name="indoubt-resolver")
        peer_latest = 0
        for addr in self.shard_addrs:
            if addr == self.addr:
                continue
            try:
                seen = yield from self.call_with_retry(
                    addr, "latest_ts", policy=SHARD_RPC_RETRY, timeout=5.0
                )
                peer_latest = max(peer_latest, seen)
            except Interrupt:
                raise
            except Exception:
                continue
        self._note_ts(peer_latest)
        if self.is_authority and peer_latest >= self.oracle.current():
            self.oracle = TimestampOracle(start=peer_latest + TS_RESEED_MARGIN)
        if self.ssi is not None:
            # Peers may have witnessed stamps this shard never saw; the
            # emptied rw-edge window (see on_crash) can only vouch for
            # snapshots taken after everything pre-crash.
            self.ssi.raise_floor(self.oracle.current())
        self.registry.counter("restarts").inc()
        # Anything the crash left prepared-but-undecided resolves now.
        yield from self._resolve_indoubt(min_age=0.0)

    def rpc_flushed(self, sender: str, commit_ts: int) -> None:
        """Flush-completion report (cast by clients and the recovery
        client).  Advances the flushed-prefix snapshot in "flushed"
        visibility mode; ignored otherwise."""
        if self.settings.snapshot_visibility != "flushed":
            return
        self._flushed_set.add(commit_ts)
        while self._unflushed and self._unflushed[0] in self._flushed_set:
            self._visible_ts = heapq.heappop(self._unflushed)
            self._flushed_set.discard(self._visible_ts)

    def rpc_abort(self, sender: str, client_id: str, txn_id: int) -> bool:
        """Abort notification.  The write-set was buffered client-side and
        is simply discarded there; the TM only counts it.  Idempotent:
        a retried/duplicated abort is acknowledged but not re-counted."""
        key = (client_id, txn_id)
        if key in self._aborted_seen:
            return True
        self._aborted_seen[key] = None
        while len(self._aborted_seen) > self.settings.commit_cache_size:
            self._aborted_seen.popitem(last=False)
        self._n_aborts.inc()
        return True

    # ------------------------------------------------------------------
    # recovery-manager interface
    # ------------------------------------------------------------------
    def rpc_fence_client(self, sender: str, client_id: str):
        """Fence a suspected-dead client before its replay log fetch.

        Sets the fence (further commits from ``client_id`` are rejected)
        and returns only once the client's in-flight commits have
        decided, closing the race where a final commit lands in the log
        *after* the recovery manager fetched it -- acknowledged to a
        client that then dies without flushing, hence lost.  Idempotent.
        """
        self._fenced.add(client_id)
        self.registry.counter("fences").inc()
        while self._inflight_commits.get(client_id, 0) > 0:
            yield self.sleep(self.settings.op_service_time)
        return True

    def rpc_unfence_client(self, sender: str, client_id: str) -> bool:
        """Lift a fence: the id re-registered as a brand-new client (the
        old incarnation's recovery completed first, so the fence's job is
        done).  Idempotent."""
        self._fenced.discard(client_id)
        return True

    def rpc_fetch_logs(
        self, sender: str, after_ts: int, client_id: Optional[str] = None
    ):
        """The ``fetchlogs`` call of Algorithms 2 and 4.

        Every in-doubt prepared transaction is resolved against the
        decision registry *first*: a commit decided but not yet fanned
        out lands in the log before the fetch answers, so recovery
        replay never misses an acknowledged slice.
        """
        if self._prepared:
            yield from self._resolve_indoubt(min_age=0.0)
        records = yield from self.log.fetch_gen(after_ts, client_id=client_id)
        return [r.to_wire() for r in records]

    def rpc_truncate_log(self, sender: str, up_to_ts: int):
        """Discard log records below the global persisted threshold."""
        dropped = yield from self.log.truncate_gen(up_to_ts)
        return dropped

    def rpc_latest_ts(self, sender: str) -> int:
        """The newest timestamp this shard has *witnessed* (grants,
        decisions, logged slices) -- what the authority's crash re-seed
        needs from its peers."""
        return self._latest_known_ts()

    def metrics(self) -> dict:
        """Uniform registry snapshot for the transaction manager, with
        the recovery log's position under ``log_``."""
        self.registry.gauge("indoubt").set(len(self._prepared))
        self.registry.gauge("reserved").set(len(self._reserved))
        if self.ssi is not None:
            tracked, floor = self.ssi.window_size()
            self.registry.gauge("ssi_window").set(tracked)
            self.registry.gauge("ssi_floor").set(floor)
            self.registry.gauge("ssi_checks").set(self.ssi.checks)
        mirror_log_position(self.registry, self.log, prefix="log_")
        return self.registry.snapshot()
