"""Span tracing for the transaction lifecycle.

A :class:`SpanTracer` is shared by every node on one simulation kernel
(see :func:`tracer_for`), so spans opened on a client, the transaction
manager, a logger shard, and a region server all land in one place and
can be linked into a per-transaction tree.

A *span* is one timed stage of work: it opens at ``kernel.now``, closes
at ``kernel.now``, and may carry a transaction key (``"<client>:<txn>"``)
and a parent span.  Closing a span records its duration into a per-stage
histogram; spans that never close (the node crashed mid-stage) stay in
the open set and are reported as *truncated* rather than polluting the
latency statistics.

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
from typing import Callable, Deque, Dict, Iterable, List, Optional

from repro.metrics.histogram import LatencyHistogram


class Span:
    """One timed stage of work; close with :meth:`end`."""

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
        """True until :meth:`end` is called."""
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

    def end(self, **tags: object) -> "Span":
        """Close the span at the current sim time; idempotent."""
        if self.end_time is None:
            self.tags.update(tags)
            self._tracer._finish(self)
        return self

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
        self._open: Dict[int, Span] = {}
        # The newest ``max_records`` finished spans; the per-stage
        # histograms count every span, kept or not.
        self._finished: Deque[Span] = deque(maxlen=max_records)
        self._stage_hist: Dict[str, LatencyHistogram] = {}
        self._truncated: List[Span] = []
        # Running duration totals per (txn, stage), maintained at finish
        # time so sum_durations() never scans the finished list (it is
        # called on every commit, and a scan is O(total spans)).
        self._txn_stage_sums: Dict[tuple, float] = {}

    # -- recording --------------------------------------------------------

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
        self._open[span.span_id] = span
        return span

    # Alias: ``tracer.span("commit.certify", txn=key)`` reads naturally.
    span = begin

    def _finish(self, span: Span) -> None:
        span.end_time = self._clock()
        self._open.pop(span.span_id, None)
        duration = span.end_time - span.start
        self._record_duration(span.stage, duration)
        if span.txn is not None:
            key = (span.txn, span.stage)
            sums = self._txn_stage_sums
            sums[key] = sums.get(key, 0.0) + duration
        self._finished.append(span)

    def _record_duration(self, stage: str, duration: float) -> None:
        hist = self._stage_hist.get(stage)
        if hist is None:
            hist = self._stage_hist[stage] = LatencyHistogram(stage)
        hist.record(duration)

    def record(
        self,
        stage: str,
        duration: float,
        txn: Optional[str] = None,
        parent: Optional[Span] = None,
        **tags: object,
    ) -> Span:
        """Record an already-measured duration as a closed span.

        Used for *derived* stages, e.g. ``commit.reply`` = the commit RPC
        total minus its measured TM-side children.
        """
        now = self._clock()
        span = Span(
            tracer=self,
            span_id=self._next_id,
            stage=stage,
            txn=txn,
            parent_id=parent.span_id if parent is not None else None,
            start=now - duration,
            tags=tags,
        )
        self._next_id += 1
        span.end_time = now
        self._record_duration(stage, duration)
        if txn is not None:
            key = (txn, stage)
            sums = self._txn_stage_sums
            sums[key] = sums.get(key, 0.0) + duration
        self._finished.append(span)
        return span

    def truncate_open(self, predicate: Callable[[Span], bool]) -> List[Span]:
        """Mark matching open spans as crash-truncated (never timed).

        Returns the truncated spans; they are removed from the open set,
        excluded from the latency histograms, and counted per-stage in
        the summary's ``truncated`` field.
        """
        victims = [s for s in self._open.values() if predicate(s)]
        for span in victims:
            self._open.pop(span.span_id, None)
            self._truncated.append(span)
        return victims

    # -- queries ----------------------------------------------------------

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

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended, ordered by span id."""
        return [self._open[k] for k in sorted(self._open)]

    def truncated_spans(self) -> List[Span]:
        """Spans abandoned by :meth:`truncate_open` (crash-truncated)."""
        return list(self._truncated)

    def children(self, parent: Span) -> List[Span]:
        """Finished + open spans whose parent is ``parent``."""
        out = [s for s in self._finished if s.parent_id == parent.span_id]
        out.extend(
            self._open[k]
            for k in sorted(self._open)
            if self._open[k].parent_id == parent.span_id
        )
        return out

    def sum_durations(self, txn: str, stages: Iterable[str]) -> float:
        """Total finished-span time for ``txn`` across ``stages``.

        O(len(stages)): reads the running per-(txn, stage) totals kept by
        the finish path instead of scanning every finished span.
        """
        sums = self._txn_stage_sums
        return sum(sums.get((txn, stage), 0.0) for stage in stages)

    # -- export -----------------------------------------------------------

    def stage_summary(self) -> dict:
        """Deterministic ``{stage: {count, mean, p50, p95, p99, max}}``.

        Stages with crash-truncated spans additionally report a
        ``truncated`` count.
        """
        truncated: Dict[str, int] = {}
        for span in self._truncated:
            truncated[span.stage] = truncated.get(span.stage, 0) + 1
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
        tracer = SpanTracer(clock=lambda: kernel.now)
        kernel._span_tracer = tracer
    return tracer
