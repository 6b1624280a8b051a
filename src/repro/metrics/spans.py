"""Span tracing for the transaction lifecycle.

A :class:`SpanTracer` is shared by every node on one simulation kernel
(see :func:`tracer_for`), so spans opened on a client, the transaction
manager, a logger shard, and a region server all land in one place and
can be linked into a per-transaction tree.

A *span* is one timed stage of work: it opens at ``kernel.now`` and may
carry a transaction key (``"<client>:<txn>"``) and a parent span.  It
then either *ends* -- it is timed under its stage and kept for
:meth:`SpanTracer.spans` -- or is *abandoned*: counted per stage under
``truncated``, never timed.  A span that a crash cuts off does neither
and is not reported at all.  Spans are output only: no product code
reads one, and this module derives ``commit.reply`` itself for each
committed ``commit.rpc`` span.

While the simulation runs the tracer only stamps and keeps.  Stage
durations, ``commit.reply`` and the retention are one pass over the
ended spans, in end order, when :meth:`SpanTracer.spans` or
:meth:`SpanTracer.stage_summary` is read or ``max_records`` are pending.

Stage taxonomy (see ``docs/OBSERVABILITY.md`` for the full catalogue)::

    txn.begin            client->TM begin RPC
    commit.rpc           client-observed commit call (parent of the rest)
    commit.certify       TM certification (conflict check + timestamps)
    commit.log_append    TM recovery-log append (queue + sync)
    log.group_sync       one group-commit disk sync (batch granularity)
    log.shard_append     one logger-shard append RPC (distributed log)
    commit.reply         derived: commit.rpc minus its TM-side children
    flush.writeset       client async write-set flush (commit -> FLUSHED)
    flush.region         one per-region flush fragment RPC
    rs.apply             region-server txn_flush apply (WAL + memstore)
    wal.sync             region-server WAL sync batch
    recovery.failover    master: one failover, failure hook -> regions opened
    recovery.plan        master: list the dead server's WAL, partition regions
    recovery.fragment_replay  region server: fetch + replay a region's WAL
    recovery.detect      RM: server failure noticed -> region recovery start
    recovery.log_fetch   RM: fetch relevant TM log records
    recovery.replay      RM: replay fetched fragments into the new server
    recovery.region_gate region server: open-region blocked on recovery
    recovery.client_replay  RM: dead-client write-set replay

All timestamps come from the simulation clock, so same-seed runs yield
bit-identical summaries.
"""

from __future__ import annotations

from collections import defaultdict, deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from repro.metrics.histogram import summarize

#: A commit's TM-side stages.  Their per-transaction totals are kept
#: until the transaction's ``commit.rpc`` span is folded, which
#: subtracts them to derive ``commit.reply``.
_SUMMED_STAGES = _CERTIFY, _LOG_APPEND = ("commit.certify", "commit.log_append")

#: The commit stages whose per-transaction durations sum exactly to the
#: end-to-end ``commit.rpc`` latency.
COMMIT_STAGES = _SUMMED_STAGES + ("commit.reply",)

_new_span = object.__new__


class Span:
    """One timed stage of work; close with :meth:`end` or :meth:`abandon`."""

    __slots__ = ("span_id", "stage", "txn", "parent_id", "start", "end_time",
                 "tags", "_tracer")

    @property
    def open(self) -> bool:
        """True until :meth:`end` is called; an abandoned span never ends."""
        return self.end_time is None

    @property
    def duration(self) -> Optional[float]:
        """Elapsed sim-time seconds, or ``None`` while still open."""
        return None if self.end_time is None else self.end_time - self.start

    def child(self, stage: str, **tags: object) -> "Span":
        """Open a child span (same txn key unless overridden via tags)."""
        return self._tracer.begin(stage, txn=self.txn, parent=self, **tags)

    def end(self, txn: Optional[str] = None, **tags: object) -> "Span":
        """Close the span at the current sim time; idempotent.

        ``txn`` names the transaction when it was not known at
        :meth:`SpanTracer.begin`.  A no-op after :meth:`abandon`.
        """
        tracer = self._tracer
        if self.end_time is None and tracer is not None:
            self.end_time = tracer._clock()
            if txn is not None:
                self.txn = txn
            if tags:
                self.tags.update(tags)
            # A committed commit's reply takes its span id now, as if derived now.
            if (self.stage == "commit.rpc" and self.txn is not None
                    and self.tags.get("outcome") == "committed"):
                tracer._reply_ids[self.span_id] = tracer._next_id
                tracer._next_id += 1
            tracer._pending.append(self)
            tracer._room -= 1
            if not tracer._room:
                tracer._fold()
        return self

    def abandon(self) -> None:
        """Give the span up untimed, counted under its stage's ``truncated``.

        It never becomes a latency sample.  A no-op after :meth:`end`; a
        later :meth:`end` records nothing.
        """
        if self.end_time is None and self._tracer is not None:
            truncated = self._tracer._truncated
            truncated[self.stage] = truncated.get(self.stage, 0) + 1
            self._tracer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"{self.duration:.6f}s"
        return f"Span#{self.span_id}({self.stage}, txn={self.txn}, {state})"


class SpanTracer:
    """Collects spans from every node sharing one simulation kernel."""

    def __init__(self, clock: Callable[[], float], max_records: int = 200_000) -> None:
        self._clock = clock
        self._next_id = 1
        # Ended spans not yet folded, in end order, and how many more
        # end before a fold.
        self._pending: List[Span] = []
        self._room = max_records
        # Reserved commit.reply ids by the span id of their commit.rpc.
        self._reply_ids: Dict[int, int] = {}
        # Folded: the newest ``max_records`` spans, and every span's
        # duration by stage, kept or not.
        self._finished: Deque[Span] = deque(maxlen=max_records)
        self._durations: Dict[str, List[float]] = defaultdict(list)
        self._truncated: Dict[str, int] = {}
        # Running duration totals per (txn, stage) of _SUMMED_STAGES; the
        # transaction's commit.rpc span pops them as it is folded, so
        # they hold only transactions whose commit has not been folded.
        self._txn_stage_sums: Dict[tuple, float] = defaultdict(float)

    def begin(self, stage: str, txn: Optional[str] = None,
              parent: Optional[Span] = None, **tags: object) -> Span:
        """Open a span for ``stage`` at the current sim time."""
        span = _new_span(Span)
        span._tracer = self
        span.span_id = self._next_id
        self._next_id += 1
        span.stage = stage
        span.txn = txn
        span.parent_id = parent.span_id if parent is not None else None
        span.start = self._clock()
        span.end_time = None
        span.tags = tags
        return span

    def _fold(self) -> None:
        """Time, sum and keep the pending spans in end order, deriving
        each committed commit's ``commit.reply`` -- what the client saw
        beyond the TM's certify and log append: network round trip, TM
        queueing and client bookkeeping."""
        pending, self._pending = self._pending, []
        self._room = self._finished.maxlen
        durations = self._durations
        finished = self._finished
        sums = self._txn_stage_sums
        reply_ids = self._reply_ids
        kept = 0  # pending[:kept] is in ``finished``
        for i, span in enumerate(pending):
            stage = span.stage
            duration = span.end_time - span.start
            durations[stage].append(duration)
            txn = span.txn
            if txn is None:
                continue
            if stage in _SUMMED_STAGES:
                sums[txn, stage] += duration
            elif stage == "commit.rpc":
                accounted = (sums.pop((txn, _CERTIFY), 0.0)
                             + sums.pop((txn, _LOG_APPEND), 0.0))
                reply_id = reply_ids.pop(span.span_id, None)
                if reply_id is not None:
                    remainder = max(duration - accounted, 0.0)
                    end = span.end_time
                    reply = _new_span(Span)
                    reply._tracer = self
                    reply.span_id = reply_id
                    reply.stage = "commit.reply"
                    reply.txn = txn
                    reply.parent_id = span.span_id
                    reply.start = end - remainder
                    reply.end_time = end
                    reply.tags = {}
                    durations["commit.reply"].append(remainder)
                    finished.extend(pending[kept:i + 1])
                    finished.append(reply)
                    kept = i + 1
        finished.extend(pending[kept:])

    # -- export -----------------------------------------------------------

    def spans(self, txn: Optional[str] = None, stage: Optional[str] = None) -> List[Span]:
        """Finished spans, optionally filtered by txn key and/or stage."""
        self._fold()
        out = self._finished
        if txn is not None:
            out = [s for s in out if s.txn == txn]
        if stage is not None:
            out = [s for s in out if s.stage == stage]
        return list(out)

    def stage_summary(self) -> dict:
        """Deterministic ``{stage: {count, mean, p50, p95, p99, max}}``.

        Stages with abandoned spans additionally report a ``truncated``
        count.
        """
        self._fold()
        durations, truncated = self._durations, self._truncated
        summary = {}
        for stage in sorted(set(durations) | set(truncated)):
            entry = summarize(durations.get(stage, []))
            if stage in truncated:
                entry["truncated"] = truncated[stage]
            summary[stage] = entry
        return summary


def tracer_for(kernel) -> SpanTracer:
    """The one :class:`SpanTracer` shared by everything on ``kernel``.

    Created lazily on first use and cached on the kernel instance, so
    clients, servers, and the recovery middleware all trace into the
    same per-simulation collector.
    """
    tracer = getattr(kernel, "_span_tracer", None)
    if tracer is None:
        # A C-level callable: reading the clock adds no Python frame.
        tracer = SpanTracer(clock=partial(getattr, kernel, "now"))
        kernel._span_tracer = tracer
    return tracer
