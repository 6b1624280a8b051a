"""Span tracing for the transaction lifecycle.

A :class:`SpanTracer` is shared by every node on one simulation kernel
(see :func:`tracer_for`), so spans opened on a client, the transaction
manager, a logger shard, and a region server all land in one place and
can be linked into a per-transaction tree.

A *span* is one timed stage of work: it opens at ``kernel.now`` and may
carry a transaction key (``"<client>:<txn>"``) and a parent span.  It
then either *ends* -- its duration goes into a per-stage histogram and
the span into :meth:`SpanTracer.spans` -- or is *abandoned*: counted per
stage under ``truncated``, never timed.  A span that a crash cuts off
does neither and is not reported at all.  Spans are output only: no
product code reads one, and this module derives ``commit.reply`` itself
when a committed ``commit.rpc`` span ends.

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

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional

from repro.metrics.histogram import LatencyHistogram

#: A commit's TM-side stages.  Their per-transaction totals are kept
#: until the transaction's ``commit.rpc`` span ends, which subtracts
#: them to derive ``commit.reply``.
_SUMMED_STAGES = ("commit.certify", "commit.log_append")

#: The commit stages whose per-transaction durations sum exactly to the
#: end-to-end ``commit.rpc`` latency.
COMMIT_STAGES = _SUMMED_STAGES + ("commit.reply",)


class Span:
    """One timed stage of work; close with :meth:`end` or :meth:`abandon`."""

    __slots__ = ("span_id", "stage", "txn", "parent_id", "start", "end_time",
                 "tags", "_tracer")

    def __init__(
        self,
        tracer: "SpanTracer",
        span_id: int,
        stage: str,
        txn: Optional[str],
        parent_id: Optional[int],
        start: float,
        tags: dict,
    ) -> None:
        self._tracer = tracer
        self.span_id = span_id
        self.stage = stage
        self.txn = txn
        self.parent_id = parent_id
        self.start = start
        self.end_time: Optional[float] = None
        self.tags = tags

    @property
    def open(self) -> bool:
        """True until :meth:`end` is called; an abandoned span never ends."""
        return self.end_time is None

    @property
    def duration(self) -> Optional[float]:
        """Elapsed sim-time seconds, or ``None`` while still open."""
        if self.end_time is None:
            return None
        return self.end_time - self.start

    def child(self, stage: str, **tags: object) -> "Span":
        """Open a child span (same txn key unless overridden via tags)."""
        return self._tracer.begin(stage, txn=self.txn, parent=self, **tags)

    def end(self, txn: Optional[str] = None, **tags: object) -> "Span":
        """Close the span at the current sim time; idempotent.

        ``txn`` names the transaction when it was not known at
        :meth:`SpanTracer.begin`.  A no-op after :meth:`abandon`.
        """
        if self.end_time is None and self._tracer is not None:
            if txn is not None:
                self.txn = txn
            self.tags.update(tags)
            self._tracer._finish(self)
        return self

    def abandon(self) -> None:
        """Give the span up untimed, counted under its stage's ``truncated``.

        It never becomes a latency sample.  A no-op after :meth:`end`; a
        later :meth:`end` records nothing.
        """
        if self.end_time is None and self._tracer is not None:
            self._tracer._abandon(self)
            self._tracer = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "open" if self.open else f"{self.duration:.6f}s"
        return f"Span#{self.span_id}({self.stage}, txn={self.txn}, {state})"


class SpanTracer:
    """Collects spans from every node sharing one simulation kernel."""

    def __init__(
        self,
        clock: Callable[[], float],
        max_records: int = 200_000,
    ) -> None:
        self._clock = clock
        self._next_id = 1
        # The newest ``max_records`` finished spans; the per-stage
        # histograms count every span, kept or not.
        self._finished: Deque[Span] = deque(maxlen=max_records)
        self._stage_hist: Dict[str, LatencyHistogram] = {}
        self._truncated: Dict[str, int] = {}
        # Running duration totals per (txn, stage) of _SUMMED_STAGES; the
        # transaction's commit.rpc span pops them as it ends, so they hold
        # only transactions still in flight.
        self._txn_stage_sums: Dict[tuple, float] = {}

    def begin(
        self,
        stage: str,
        txn: Optional[str] = None,
        parent: Optional[Span] = None,
        **tags: object,
    ) -> Span:
        """Open a span for ``stage`` at the current sim time."""
        span = Span(
            tracer=self,
            span_id=self._next_id,
            stage=stage,
            txn=txn,
            parent_id=parent.span_id if parent is not None else None,
            start=self._clock(),
            tags=tags,
        )
        self._next_id += 1
        return span

    def _finish(self, span: Span) -> None:
        end = span.end_time = self._clock()
        duration = end - span.start
        stage = span.stage
        self._record_duration(stage, duration)
        self._finished.append(span)
        txn = span.txn
        if txn is None:
            return
        sums = self._txn_stage_sums
        if stage in _SUMMED_STAGES:
            key = (txn, stage)
            sums[key] = sums.get(key, 0.0) + duration
        elif stage == "commit.rpc":
            accounted = sum(sums.pop((txn, s), 0.0) for s in _SUMMED_STAGES)
            if span.tags.get("outcome") == "committed":
                self._derive_reply(span, max(duration - accounted, 0.0))

    def _derive_reply(self, rpc: Span, remainder: float) -> None:
        """Append ``commit.reply``: what the client saw of a committed
        ``commit.rpc`` beyond the TM's certify and log append -- network
        round trip, TM queueing and client bookkeeping."""
        end = rpc.end_time
        reply = Span(self, self._next_id, "commit.reply", rpc.txn,
                     rpc.span_id, end - remainder, {})
        self._next_id += 1
        reply.end_time = end
        self._record_duration("commit.reply", remainder)
        self._finished.append(reply)

    def _abandon(self, span: Span) -> None:
        truncated = self._truncated
        truncated[span.stage] = truncated.get(span.stage, 0) + 1

    def _record_duration(self, stage: str, duration: float) -> None:
        hist = self._stage_hist.get(stage)
        if hist is None:
            hist = self._stage_hist[stage] = LatencyHistogram(stage)
        hist.record(duration)

    # -- export -----------------------------------------------------------

    def spans(
        self,
        txn: Optional[str] = None,
        stage: Optional[str] = None,
    ) -> List[Span]:
        """Finished spans, optionally filtered by txn key and/or stage."""
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
        truncated = self._truncated
        summary = {}
        for stage in sorted(set(self._stage_hist) | set(truncated)):
            hist = self._stage_hist.get(stage)
            entry = hist.summary() if hist is not None else {
                "count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0,
                "p99": 0.0, "max": 0.0,
            }
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
