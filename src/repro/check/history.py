"""Operation histories for the consistency oracle: written and read here.

This module owns the event format both ways.  A :class:`HistoryRecorder`
writes it; a :class:`HistoryView` is the one place it is read back, and
both checkers (:mod:`~repro.check.sichecker`,
:mod:`~repro.check.serializability`) are passes over that view.

A :class:`HistoryRecorder` attaches to any number of
:class:`~repro.txn.client.TxnClient` instances (``recorder.attach(txn)``)
and logs every operation outcome the clients observe, stamped with
simulation time: begins (with the snapshot timestamp), reads and scans
(with the *version* each returned value carried), buffered writes and
deletes, commit attempts (with the full write-set put on the wire),
commit/abort outcomes, and flush completions (via the
:class:`~repro.txn.context.TxnContext` state machine, so asynchronous
post-commit flushes are captured too).

The resulting history is a plain list of dicts, serialized as canonical
JSON (sorted keys, fixed separators): two same-seed simulation runs
produce **byte-identical** history files, which is what makes the
offline checker's reports reproducible evidence rather than one-off
observations.

Ack semantics: a transaction with a ``commit_attempt`` event but neither
a ``commit`` nor an ``abort`` event was *unacknowledged* -- the client
crashed (or gave up) without learning the verdict.  The checker treats
such transactions as "maybe committed", exactly the case Algorithm 2's
client recovery exists for.

The view is built in one pass over the events.  It assembles one
:class:`TxnView` per transaction key, lists point reads and scan rows in
one shape (the read stream, ``HistoryView.reads``), orders each key's
committed versions by commit timestamp, and answers the one flush
question three rules gate on (:meth:`HistoryView.flushed_before`).  A
version is dated by its writer's *first* ``flushed`` event: the recorder
emits at most one per transaction, but a merged or hand-written history
may carry more.
"""

from __future__ import annotations

import itertools
import json
from operator import itemgetter
from typing import Any, Dict, List, Optional, Tuple

from repro.metrics.registry import MetricsRegistry
from repro.sim.kernel import Kernel
from repro.txn.context import FLUSHED, TxnContext

#: History file format version (bump on incompatible schema changes).
FORMAT_VERSION = 1


def txn_key(ctx: TxnContext) -> str:
    """The globally unique transaction key, as used by the span tracer."""
    return f"{ctx.client_id}:{ctx.txn_id}"


class HistoryRecorder:
    """Sim-time-stamped log of every transactional operation outcome."""

    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.events: List[dict] = []
        self._seq = itertools.count()
        #: Oracle counters (folded into the cluster metrics snapshot).
        self.registry = MetricsRegistry("oracle", "recorder")

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------
    def attach(self, txn_client) -> None:
        """Start recording this transactional client's operations."""
        txn_client.recorder = self

    # ------------------------------------------------------------------
    # event emission (called by TxnClient / TxnContext)
    # ------------------------------------------------------------------
    def _emit(self, etype: str, **fields: Any) -> None:
        event = {
            "e": etype,
            "seq": next(self._seq),
            "t": round(self.kernel.now, 9),
        }
        event.update(fields)
        self.events.append(event)
        self.registry.counter("events").inc()
        self.registry.counter("events_by_kind", kind=etype).inc()

    def note_begin(self, ctx: TxnContext) -> None:
        """A transaction opened with its snapshot timestamp."""
        self._emit(
            "begin", txn=txn_key(ctx), client=ctx.client_id, start_ts=ctx.start_ts
        )

    def note_read(
        self,
        ctx: TxnContext,
        table: str,
        row: str,
        column: str,
        issued_at: float,
        version: Optional[int],
        value: Any,
        own: bool,
    ) -> None:
        """One point read returned: ``version`` is None on a miss or when
        the value came from the transaction's own buffer (``own``)."""
        self._emit(
            "read",
            txn=txn_key(ctx),
            client=ctx.client_id,
            table=table,
            row=row,
            column=column,
            start_ts=ctx.start_ts,
            t0=round(issued_at, 9),
            version=version,
            value=value,
            own=own,
        )

    def note_scan(
        self,
        ctx: TxnContext,
        table: str,
        start_row: str,
        end_row: Optional[str],
        column: str,
        issued_at: float,
        rows: List[list],
    ) -> None:
        """One scan returned; ``rows`` is ``[[row, version, value, own]]``
        (version None for rows overlaid from the transaction's buffer)."""
        self._emit(
            "scan",
            txn=txn_key(ctx),
            client=ctx.client_id,
            table=table,
            start_row=start_row,
            end_row=end_row,
            column=column,
            start_ts=ctx.start_ts,
            t0=round(issued_at, 9),
            rows=rows,
        )

    def note_write(
        self, ctx: TxnContext, table: str, row: str, column: str, value: Any
    ) -> None:
        """A write (or delete: ``value`` None) was buffered."""
        self._emit(
            "write",
            txn=txn_key(ctx),
            client=ctx.client_id,
            table=table,
            row=row,
            column=column,
            value=value,
        )

    def note_commit_attempt(
        self,
        ctx: TxnContext,
        writes: List[tuple],
        owners: Optional[List[int]] = None,
        reads: Optional[List[tuple]] = None,
    ) -> None:
        """The commit request (with its certified write-set) hit the wire.

        ``owners`` -- present only under a sharded TM -- gives the owning
        TM-shard index per write (parallel to ``writes``), which is what
        the checker's cross-shard atomicity rule keys on.  ``reads`` --
        present only under SSI -- is the shipped read set, ``(table, row,
        column, version_observed)`` per read (version ``null`` for a
        miss), as used for rw-antidependency certification.  Runs without
        the corresponding feature omit each field entirely, keeping their
        histories byte-identical.
        """
        fields = dict(
            txn=txn_key(ctx),
            client=ctx.client_id,
            start_ts=ctx.start_ts,
            writes=[list(w) for w in writes],
        )
        if owners is not None:
            fields["owners"] = list(owners)
        if reads is not None:
            fields["reads"] = [list(r) for r in reads]
        self._emit("commit_attempt", **fields)

    def note_commit(self, ctx: TxnContext, read_only: bool = False) -> None:
        """The commit was acknowledged to the application."""
        self._emit(
            "commit",
            txn=txn_key(ctx),
            client=ctx.client_id,
            start_ts=ctx.start_ts,
            commit_ts=ctx.commit_ts,
            read_only=read_only,
        )

    def note_abort(self, ctx: TxnContext, reason: Optional[str]) -> None:
        """The transaction aborted (application abort or certification)."""
        self._emit(
            "abort",
            txn=txn_key(ctx),
            client=ctx.client_id,
            start_ts=ctx.start_ts,
            reason=reason,
        )

    def note_state(self, ctx: TxnContext, state: str) -> None:
        """Context state-machine hook: records flush completions.

        Wired through :meth:`TxnContext.transition`, so the asynchronous
        post-commit flush (which completes long after ``commit`` returned)
        is captured without instrumenting the flush path itself.
        """
        if state == FLUSHED:
            self._emit(
                "flushed",
                txn=txn_key(ctx),
                client=ctx.client_id,
                commit_ts=ctx.commit_ts,
            )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_json(self, **meta: Any) -> str:
        """Canonical JSON for the whole history (byte-stable per seed)."""
        doc = {"format": FORMAT_VERSION, "events": self.events}
        doc.update(meta)
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def write(self, path: str, **meta: Any) -> None:
        """Write the history file (one canonical-JSON document)."""
        with open(path, "w") as fh:
            fh.write(self.to_json(**meta) + "\n")

    def metrics(self) -> dict:
        """Uniform registry snapshot for the recorder."""
        return self.registry.snapshot()

    def __len__(self) -> int:
        return len(self.events)


def load_history_doc(path: str) -> dict:
    """Load a full history document (events plus any metadata -- seed,
    isolation mode, ... -- that :meth:`HistoryRecorder.write` stamped)."""
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported history format {doc.get('format')!r} "
            f"(expected {FORMAT_VERSION})"
        )
    return doc


def load_history(path: str) -> List[dict]:
    """Load a history file written by :meth:`HistoryRecorder.write`."""
    return load_history_doc(path)["events"]


Key = Tuple[str, str, str]  # (table, row, column)


class TxnView:
    """One transaction as its history recorded it."""

    __slots__ = (
        "key", "client", "start_ts", "writes", "attempt", "owners",
        "commit_ts", "read_only", "aborted", "flushed_at",
    )

    def __init__(self, key: str) -> None:
        self.key = key
        self.client: Optional[str] = None
        self.start_ts: Optional[int] = None
        #: Buffered writes, ``(table, row, column, value)`` in stream order.
        self.writes: List[tuple] = []
        #: The write-set the commit request put on the wire, if one did,
        #: as ``[table, row, column, value]`` rows.
        self.attempt: Optional[List[list]] = None
        #: The owning TM shard of each ``attempt`` write (sharded TM only).
        self.owners: Optional[List[int]] = None
        self.commit_ts: Optional[int] = None
        self.read_only = False
        self.aborted = False
        #: When the post-commit flush completed (the first ``flushed``).
        self.flushed_at: Optional[float] = None

    @property
    def committed(self) -> bool:
        """Acknowledged as committed (read-only commits included)."""
        return self.commit_ts is not None and not self.aborted

    @property
    def unacked(self) -> bool:
        """Attempted, but the client never learned the verdict."""
        return (
            self.attempt is not None
            and self.commit_ts is None
            and not self.aborted
        )

    def certified_writes(self) -> list:
        """The write-set the TM certified (falls back to buffered writes)."""
        return self.attempt if self.attempt is not None else self.writes


class HistoryView:
    """Read-only view of one history: the only reader of the event format.

    ``txns`` holds one :class:`TxnView` per transaction key any event
    names, in key order.

    ``reads`` is the read stream: every point read and scan row in stream
    order as ``(txn, key, start_ts, t0, version, value, own, where)``,
    ``where`` being ``"read"`` or ``"scan"``.  ``own`` is False for a read
    the store served; for one the write buffer served it is
    ``(buffered,)``, the value the transaction had buffered for the key
    at the read's position in the stream.

    ``versions`` maps each key to its committed versions as
    ``(commit_ts, writer, value)``, ordered by stamp, then writer: one
    entry per committed, non-read-only writer of the key, carrying its
    last certified value.  ``sharded`` says whether any commit attempt
    carries per-write ``owners``.
    """

    def __init__(self, events: List[dict]) -> None:
        self.events = events
        self.sharded = False
        self.reads: List[tuple] = []
        stream = self.reads.append
        txns: Dict[str, TxnView] = {}
        for ev in events:
            kind = ev["e"]
            txn = txns.get(ev["txn"])
            if txn is None:
                txn = txns[ev["txn"]] = TxnView(ev["txn"])
            if kind == "read":
                key = (ev["table"], ev["row"], ev["column"])
                own = ev["own"] and (_buffered(txn, key),)
                stream((txn, key, ev["start_ts"], ev.get("t0", ev["t"]),
                        ev["version"], ev["value"], own, "read"))
            elif kind == "scan":
                t0 = ev.get("t0", ev["t"])
                for row, version, value, own in ev["rows"]:
                    key = (ev["table"], row, ev["column"])
                    own = own and (_buffered(txn, key),)
                    stream((txn, key, ev["start_ts"], t0, version, value,
                            own, "scan"))
            elif kind == "begin":
                txn.client = ev["client"]
                txn.start_ts = ev["start_ts"]
            elif kind == "write":
                txn.writes.append(
                    (ev["table"], ev["row"], ev["column"], ev["value"])
                )
            elif kind == "commit_attempt":
                txn.attempt = ev["writes"]
                txn.owners = ev.get("owners")
                self.sharded = self.sharded or txn.owners is not None
            elif kind == "commit":
                txn.commit_ts = ev["commit_ts"]
                txn.read_only = bool(ev.get("read_only"))
                if txn.start_ts is None:
                    txn.start_ts = ev["start_ts"]
            elif kind == "abort":
                txn.aborted = True
            elif kind == "flushed" and txn.flushed_at is None:
                txn.flushed_at = ev["t"]
        self.txns = dict(sorted(txns.items()))

        self.versions: Dict[Key, List[Tuple[int, str, Any]]] = {}
        #: commit ts -> when a write-set stamped with it first flushed.
        self._flushed: Dict[int, float] = {}
        for txn in self.txns.values():
            if not txn.committed or txn.read_only:
                continue
            ts, at = txn.commit_ts, txn.flushed_at
            if at is not None:
                self._flushed[ts] = min(at, self._flushed.get(ts, at))
            last = {(t, r, c): v for t, r, c, v in txn.certified_writes()}
            for key, value in last.items():
                self.versions.setdefault(key, []).append((ts, txn.key, value))
        for entries in self.versions.values():
            entries.sort(key=itemgetter(0))  # stable: writer order kept

    def flushed_before(self, ts: int, t: float) -> bool:
        """Whether the version stamped ``ts`` was observably in the store
        at time ``t``: the gate of ``stale_read``, ``cross_shard_atomicity``
        and the si-mode graph audit's rw excusal."""
        at = self._flushed.get(ts)
        return at is not None and at <= t


def _buffered(txn: TxnView, key: Key) -> Any:
    """The last value ``txn`` buffered for ``key`` so far (None if none)."""
    for table, row, column, value in reversed(txn.writes):
        if (table, row, column) == key:
            return value
    return None
