"""The transactional client: the paper's extended HBase client.

Adds ``begin`` / ``commit`` / ``abort`` on top of the key-value client,
buffers write-sets locally (deferred update), and flushes them to the
region servers **after** commit.  A recovery tracker
(:class:`repro.core.client_agent.ClientRecoveryAgent`) can be attached; the
client then reports commit timestamps and flush completions to it --
Algorithm 1's "On receiving commit timestamp" and "On post-flush" hooks.

Durability modes:

* ``"tm_log"`` (the paper's): commit returns once the TM's recovery log is
  durable; the write-set flush runs asynchronously afterwards.
* ``"store_sync"`` (the fig2a baseline): no TM logging; commit returns only
  after the write-set is flushed to region servers running synchronous WAL
  persistence -- durability comes from the store.
"""

from __future__ import annotations

import itertools
from typing import Any, Optional, Sequence

from repro.errors import TxnConflict
from repro.kvstore.client import KvClient
from repro.metrics.registry import MetricsRegistry
from repro.metrics.spans import tracer_for
from repro.sim.events import Interrupt
from repro.sim.node import Node
from repro.sim.retry import RetryPolicy
from repro.txn.context import ABORTED, COMMITTED, FLUSHED, TxnContext
from repro.txn.sharding import shard_of

TM_LOG = "tm_log"
STORE_SYNC = "store_sync"

#: Backoff for TM round-trips.  Retrying a commit whose response was lost
#: re-submits it; the TM's per-transaction decision cache makes that safe.
DEFAULT_TM_RETRY = RetryPolicy(
    base_delay=0.05, multiplier=2.0, max_delay=1.0, jitter=0.2, max_attempts=6
)


class TxnClient:
    """Transactional access to the store from one client process."""

    def __init__(
        self,
        host: Node,
        kv: KvClient,
        tm_addrs: Sequence[str] = ("tm",),
        client_id: Optional[str] = None,
        durability: str = TM_LOG,
        tracker: Optional[Any] = None,
        retry_policy: Optional[RetryPolicy] = None,
        isolation: str = "si",
    ) -> None:
        if durability not in (TM_LOG, STORE_SYNC):
            raise ValueError(f"unknown durability mode {durability!r}")
        if isolation not in ("si", "ssi"):
            raise ValueError(f"unknown isolation level {isolation!r}")
        #: Certification isolation level; must match the TM's.  Under
        #: "ssi" the client collects every store read's key and ships the
        #: read-set with the commit for rw-antidependency certification.
        self.isolation = isolation
        self.host = host
        self.kv = kv
        #: TM topology (authority shard first): begins/aborts go to the
        #: authority and commits route to the write-set's owner (or its
        #: coordinator, the lowest participating shard).
        self.tm_addrs = list(tm_addrs)
        self.n_tm_shards = len(self.tm_addrs)
        self.tm_addr = self.tm_addrs[0]
        self.client_id = client_id or host.addr
        self.durability = durability
        self.retry_policy = retry_policy or DEFAULT_TM_RETRY
        #: Recovery-tracking hook (Algorithm 1); None disables tracking.
        self.tracker = tracker
        #: History-recording hook (the consistency oracle); None disables
        #: recording.  Set via ``HistoryRecorder.attach(client)``.
        self.recorder = None
        self._local_ids = itertools.count(1)
        #: Registry behind all client statistics (see ``metrics()``).
        self.registry = MetricsRegistry("txn_client", self.client_id)
        # Hot-path counters, held directly so increments skip the
        # registry lookup.  Read them via ``metrics()["counters"]``.
        (
            self._n_begun,
            self._n_committed,
            self._n_aborted,
            self._n_flushed,
        ) = self.registry.counters("begun", "committed", "aborted", "flushed")
        self._tracer = tracer_for(host.kernel)

    def metrics(self) -> dict:
        """Uniform registry snapshot for this transactional client."""
        return self.registry.snapshot()

    def _txn_key(self, ctx: TxnContext) -> str:
        return f"{self.client_id}:{ctx.txn_id}"

    # ------------------------------------------------------------------
    # transaction lifecycle (generator API)
    # ------------------------------------------------------------------
    def begin(self):
        """Start a transaction; returns its :class:`TxnContext`."""
        span = self._tracer.begin("txn.begin")
        reply = yield from self.host.call_with_retry(
            self.tm_addr, "begin", policy=self.retry_policy, timeout=10.0,
            client_id=self.client_id,
        )
        self._n_begun.inc()
        ctx = TxnContext(
            txn_id=reply["txn_id"],
            start_ts=reply["start_ts"],
            client_id=self.client_id,
        )
        if self.recorder is not None:
            ctx.recorder = self.recorder
            self.recorder.note_begin(ctx)
        span.txn = self._txn_key(ctx)
        span.end()
        return ctx

    def read(self, ctx: TxnContext, table: str, row: str, column: str = "f"):
        """Snapshot read at the transaction's start timestamp.

        Returns the value or None.  Reads the transaction's own buffered
        write first (read-your-own-writes).
        """
        ctx.require_active()
        issued_at = self.host.kernel.now
        if (table, row, column) in ctx.write_set:
            value = ctx.write_set.get(table, row, column)
            if self.recorder is not None:
                self.recorder.note_read(
                    ctx, table, row, column, issued_at, None, value, own=True
                )
            return value
        result = yield from self.kv.get(table, row, column, max_version=ctx.start_ts)
        version, value = (None, None) if result is None else result
        if self.isolation == "ssi":
            # The version observed matters, not just the key: a read can
            # legally miss a committed-but-unflushed version inside the
            # snapshot, and certification needs the version to notice.
            # Misses count too (version None): reading "no version" is
            # still a read the certifier must defend against a writer.
            ctx.read_set.add((table, row, column, version))
        if self.recorder is not None:
            self.recorder.note_read(
                ctx, table, row, column, issued_at, version, value, own=False
            )
        return value

    def scan(
        self,
        ctx: TxnContext,
        table: str,
        start_row: str,
        end_row: Optional[str] = None,
        limit: int = 1000,
        column: str = "f",
    ):
        """Filtered range scan of one column at the transaction's snapshot.

        Returns ``[(row, value)]``, rows ascending.  Buffered writes of
        this transaction *to the scanned column* overlay the scan
        (read-your-own-writes), and its buffered deletes of that column
        hide rows; writes to other columns are invisible here.
        """
        ctx.require_active()
        issued_at = self.host.kernel.now
        cells = yield from self.kv.scan(
            table, start_row, end_row, max_version=ctx.start_ts, limit=limit
        )
        merged = {
            row: (version, value, False)
            for row, col, version, value in cells
            if col == column
        }
        for (t, row, col), value in ctx.write_set.writes.items():
            if t != table or col != column or row < start_row:
                continue
            if end_row is not None and row >= end_row:
                continue
            if value is None:
                merged.pop(row, None)
            else:
                merged[row] = (None, value, True)
        result = sorted(merged.items())[:limit]
        if self.isolation == "ssi":
            # Returned store rows only: the scanned range's *absent* rows
            # (predicate reads / phantoms) are out of SSI's scope here,
            # as documented in docs/CHECKING.md.
            for row, (v, _value, own) in result:
                if not own:
                    ctx.read_set.add((table, row, column, v))
        if self.recorder is not None:
            self.recorder.note_scan(
                ctx, table, start_row, end_row, column, issued_at,
                rows=[[row, v, value, own] for row, (v, value, own) in result],
            )
        return [(row, value) for row, (_v, value, _own) in result]

    def write(self, ctx: TxnContext, table: str, row: str, value: Any, column: str = "f") -> None:
        """Buffer an insert/update (nothing reaches the store until commit)."""
        ctx.require_active()
        ctx.write_set.put(table, row, column, value)
        if self.recorder is not None:
            self.recorder.note_write(ctx, table, row, column, value)

    def delete(self, ctx: TxnContext, table: str, row: str, column: str = "f") -> None:
        """Buffer a delete."""
        ctx.require_active()
        ctx.write_set.delete(table, row, column)
        if self.recorder is not None:
            self.recorder.note_write(ctx, table, row, column, None)

    def abort(self, ctx: TxnContext):
        """Abort: discard the buffered write-set."""
        ctx.require_active()
        ctx.transition(ABORTED)
        ctx.abort_reason = "application abort"
        if self.recorder is not None:
            self.recorder.note_abort(ctx, ctx.abort_reason)
        self._n_aborted.inc()
        yield from self.host.call_with_retry(
            self.tm_addr, "abort", policy=self.retry_policy, timeout=10.0,
            client_id=self.client_id, txn_id=ctx.txn_id,
        )
        return ctx

    def commit(self, ctx: TxnContext, wait_flush: bool = False):
        """Commit the transaction.  (Generator API.)

        In ``tm_log`` mode this returns as soon as the TM has the write-set
        durable in its recovery log -- the paper's commit point -- and the
        flush to the region servers continues in the background (pass
        ``wait_flush=True`` to block until the flushed state instead).  In
        ``store_sync`` mode it returns only after the synchronous flush.

        Raises :class:`TxnConflict` if certification fails.
        """
        ctx.require_active()
        txn_key = self._txn_key(ctx)
        span = self._tracer.begin("commit.rpc", txn=txn_key)
        writes = [
            (table, row, column, value)
            for (table, row, column), value in sorted(ctx.write_set.writes.items())
        ]
        target, timeout, owners = self.tm_addr, 30.0, None
        if self.n_tm_shards > 1:
            owners = [
                shard_of(table, row, self.n_tm_shards)
                for table, row, _column, _value in writes
            ]
            owner_set = sorted(set(owners))
            if owner_set:
                # Single owner: commit at that shard.  Several owners:
                # the lowest one coordinates the 2PC.
                target = self.tm_addrs[owner_set[0]]
            # Shorter per-attempt timeout: a commit parked on a crashed
            # shard should fail over to a retry (and a revived shard)
            # quickly, not after the single-TM's 30 s grace.
            timeout = 5.0
        reads, extra = None, {}
        if self.isolation == "ssi":
            # Ship the read-set -- (table, row, column, version_observed)
            # -- for rw-antidependency certification.  A read-only commit
            # still routes to ``target`` (the authority when sharded),
            # which hosts the global rw-edge window.
            reads = sorted(
                ctx.read_set,
                key=lambda r: (r[0], r[1], r[2], -1 if r[3] is None else r[3]),
            )
            extra["reads"] = reads
        if self.recorder is not None:
            # Recorded *before* the RPC: a transaction with an attempt but
            # no verdict is "maybe committed" (the client-recovery case).
            self.recorder.note_commit_attempt(
                ctx, writes, owners=owners, reads=reads
            )
        size = max(96 * len(writes), 96)
        if reads:
            size += 16 * len(reads)
        # Sessions sharing this client may get their commit timestamps
        # out of order; the tracker holds T_F(c) at this attempt's floor
        # until the attempt is noted or dropped.
        attempt = None
        if self.tracker is not None and self.durability == TM_LOG:
            attempt = self.tracker.note_attempt()
        # Retried commits are safe: the TM's decision cache returns the
        # original verdict if our first request got through but the
        # response was lost (or the fabric duplicated the request).
        try:
            reply = yield from self.host.call_with_retry(
                target,
                "commit",
                policy=self.retry_policy,
                timeout=timeout,
                size=size,
                client_id=self.client_id,
                txn_id=ctx.txn_id,
                start_ts=ctx.start_ts,
                writes=writes,
                log_commit=(self.durability == TM_LOG),
                **extra,
            )
        except BaseException:
            if attempt is not None:
                self.tracker.drop_attempt(attempt)
            raise
        if attempt is not None and (
            reply["status"] == "aborted" or reply.get("read_only")
        ):
            self.tracker.drop_attempt(attempt)
        if reply["status"] == "aborted":
            ctx.transition(ABORTED)
            ctx.abort_reason = f"conflict on {reply.get('conflict_key')}"
            if self.recorder is not None:
                self.recorder.note_abort(ctx, ctx.abort_reason)
            self._n_aborted.inc()
            span.end(outcome="aborted")
            raise TxnConflict(ctx.txn_id, tuple(reply.get("conflict_key") or ()))

        ctx.commit_ts = reply["commit_ts"]
        if reply.get("read_only"):
            ctx.transition(COMMITTED)
            if self.recorder is not None:
                self.recorder.note_commit(ctx, read_only=True)
            self._n_committed.inc()
            self._end_commit_span(span, txn_key)
            return ctx

        if self.durability == STORE_SYNC:
            # Baseline: durability comes from the store, so the flush is
            # part of the commit path.
            yield from self._flush(ctx, parent=span)
            ctx.transition(COMMITTED)
            if self.recorder is not None:
                self.recorder.note_commit(ctx)
            ctx.transition(FLUSHED)
            self.host.cast(self.tm_addr, "flushed", commit_ts=ctx.commit_ts)
            self._n_committed.inc()
            self._end_commit_span(span, txn_key)
            return ctx

        # Paper mode: committed now; flush afterwards.
        if self.tracker is not None:
            yield from self.tracker.note_commit(ctx.commit_ts, attempt)
        ctx.transition(COMMITTED)
        if self.recorder is not None:
            self.recorder.note_commit(ctx)
        self._n_committed.inc()
        self._end_commit_span(span, txn_key)
        flush_proc = self.host.spawn(
            self._flush_after_commit(ctx, parent=span),
            name=("flush:", ctx.commit_ts),
        )
        flush_proc.defuse()
        if wait_flush:
            yield flush_proc
        return ctx

    def _end_commit_span(self, span, txn_key: str) -> None:
        """Close the commit span and derive the ``commit.reply`` stage.

        The TM-side children (certification and log append) are measured
        at the TM under the same txn key; the remainder of the
        client-observed commit -- request/response network time, TM
        queueing, and client bookkeeping -- is recorded as the derived
        ``commit.reply`` stage so the per-stage breakdown sums exactly to
        the end-to-end commit latency.
        """
        span.end(outcome="committed")
        accounted = self._tracer.sum_durations(
            txn_key, ("commit.certify", "commit.log_append")
        )
        remainder = max(span.duration - accounted, 0.0)
        self._tracer.record("commit.reply", remainder, txn=txn_key, parent=span)

    def transaction(self, body, retries: int = 0, wait_flush: bool = False):
        """Run ``body`` inside a transaction.  (Generator API.)

        ``body`` is a generator function taking the :class:`TxnContext`;
        this helper begins a transaction, delegates to ``body(ctx)``,
        and commits.  If ``body`` raises -- or the commit certification
        fails -- the transaction is aborted automatically (unless
        ``body`` already aborted it itself, e.g. a business-rule abort).
        :class:`TxnConflict` is retried up to ``retries`` times with the
        client's shared :class:`RetryPolicy` backoff; anything else
        propagates after the auto-abort.

        Returns ``(ctx, result)`` -- the committed context (its
        ``commit_ts`` is set) and ``body``'s return value::

            def deposit(ctx):
                balance = yield from client.read(ctx, TABLE, "acct")
                client.write(ctx, TABLE, "acct", balance + 100)
                return balance

            ctx, old = yield from client.transaction(deposit, retries=3)
        """
        attempt = 0
        while True:
            ctx = yield from self.begin()
            try:
                result = yield from body(ctx)
                if ctx.active:  # body may have aborted on a business rule
                    yield from self.commit(ctx, wait_flush=wait_flush)
            except TxnConflict:
                # commit() already transitioned the context to aborted.
                if attempt >= retries:
                    raise
                attempt += 1
                yield self.host.sleep(
                    self.retry_policy.backoff(attempt, self.host.retry_rng)
                )
                continue
            except BaseException:
                if ctx.active:
                    yield from self.abort(ctx)
                raise
            return ctx, result

    # ------------------------------------------------------------------
    # flush path
    # ------------------------------------------------------------------
    def _flush_after_commit(self, ctx: TxnContext, parent=None):
        try:
            yield from self._flush(ctx, parent=parent)
        except Interrupt:
            raise  # client crashed mid-flush: the recovery manager's case
        ctx.transition(FLUSHED)
        self._n_flushed.inc()
        # Report flush completion to the TM (drives the flushed-prefix
        # snapshot in "flushed" visibility mode; a no-op otherwise).
        self.host.cast(self.tm_addr, "flushed", commit_ts=ctx.commit_ts)
        if self.tracker is not None:
            yield from self.tracker.note_flushed(ctx.commit_ts)

    def _flush(self, ctx: TxnContext, parent=None):
        # A span that never closes marks a crash-truncated flush -- the
        # case the recovery middleware exists for.
        span = self._tracer.begin(
            "flush.writeset", txn=self._txn_key(ctx), parent=parent
        )
        for table in ctx.write_set.tables():
            cells = ctx.write_set.stamped_cells(table, ctx.commit_ts)
            yield from self.kv.flush_write_set(
                table, ctx.commit_ts, cells, txn=span.txn
            )
        span.end()
