"""Closed-loop workload driver (the extended-YCSB harness).

Runs N client threads spread over one or more client machines.  Each
thread executes one workload mix end to end -- by default the paper's:
begin, 10 random row operations at 50/50 read/update, commit -- and
records response time *at commit return* (the paper's commit point:
write-sets flush to the store afterwards).  An optional target rate
throttles the offered load; at saturation the loop degrades to
closed-loop behaviour, which is what bends the fig2a response-time curves
upward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.cluster import ClientHandle, SimCluster, TABLE
from repro.config import WorkloadSettings
from repro.errors import ReproError, TxnAborted
from repro.metrics import LatencyHistogram, TimeSeries
from repro.sim.events import Interrupt
from repro.workload.ycsb import (
    INSERT,
    READ,
    RMW,
    SCAN,
    UPDATE,
    KeySpace,
    WORKLOADS,
    YcsbGenerator,
)


@dataclass
class WorkloadResult:
    """Everything a benchmark needs from one run."""

    started_at: float
    measured_from: float
    finished_at: float
    committed: int = 0
    aborted: int = 0
    failed: int = 0
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)
    throughput_ts: TimeSeries = field(default_factory=lambda: TimeSeries(1.0, "tps"))
    latency_ts: TimeSeries = field(default_factory=lambda: TimeSeries(1.0, "rt"))

    @property
    def measured_duration(self) -> float:
        """Seconds covered by the summary statistics (post-warmup)."""
        return self.finished_at - self.measured_from

    @property
    def achieved_tps(self) -> float:
        """Committed transactions per measured second."""
        if self.measured_duration <= 0:
            return 0.0
        return self.committed / self.measured_duration

    def summary(self) -> dict:
        """Headline numbers (latencies in milliseconds)."""
        return {
            "tps": round(self.achieved_tps, 1),
            "committed": self.committed,
            "aborted": self.aborted,
            "failed": self.failed,
            "mean_ms": round(self.latency.mean * 1000, 2),
            "p95_ms": round(self.latency.percentile(95) * 1000, 2),
            "p99_ms": round(self.latency.percentile(99) * 1000, 2),
        }


class WorkloadDriver:
    """Drives the transactional YCSB workload against a cluster."""

    def __init__(
        self,
        cluster: SimCluster,
        settings: Optional[WorkloadSettings] = None,
        n_client_nodes: int = 1,
        mix: str = "paper",
        ledger=None,
    ) -> None:
        """``mix`` names a workload of :data:`~repro.workload.ycsb.WORKLOADS`:
        the paper's transaction type or a YCSB core workload (``"A"``..
        ``"F"``).  ``ledger`` (an optional
        :class:`~repro.workload.verify.CommitLedger`) records every
        transaction outcome -- committed, aborted, read-only -- so driver
        runs feed the same audit surface the chaos harness uses."""
        self.cluster = cluster
        self.ledger = ledger
        self.settings = settings or cluster.config.workload
        if n_client_nodes < 1:
            raise ReproError("need at least one client machine")
        if mix not in WORKLOADS:
            raise ReproError(
                f"unknown workload mix {mix!r}; choose from {sorted(WORKLOADS)}"
            )
        self.mix = mix
        self.n_client_nodes = n_client_nodes
        self.handles: List[ClientHandle] = []
        self._txn_counter = 0
        self._stop_at = 0.0
        self._gen_rng = cluster.kernel.rng.substream("workload")
        self._key_space = KeySpace(initial=self.settings.n_rows)

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def ensure_clients(self) -> List[ClientHandle]:
        """Create (or adopt) the client machines -- idempotent across
        drivers sharing one cluster."""
        existing = {h.client_id: h for h in self.cluster.clients}
        while len(self.handles) < self.n_client_nodes:
            name = f"ycsb{len(self.handles)}"
            handle = existing.get(name)
            if handle is None or not handle.node.alive:
                handle = self.cluster.add_client(name)
            self.handles.append(handle)
        return self.handles

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(
        self,
        duration: Optional[float] = None,
        target_tps: Optional[float] = None,
        warmup: float = 0.0,
        drain: float = 1.0,
    ) -> WorkloadResult:
        """Run the workload for ``duration`` simulated seconds.

        ``target_tps`` throttles the total offered load (None = closed
        loop at full speed).  The first ``warmup`` seconds are excluded
        from the summary statistics but present in the time series.
        """
        duration = duration if duration is not None else self.settings.duration
        target_tps = target_tps if target_tps is not None else self.settings.target_tps
        self.ensure_clients()
        kernel = self.cluster.kernel
        start = kernel.now
        result = WorkloadResult(
            started_at=start, measured_from=start + warmup, finished_at=start + duration
        )
        self._stop_at = start + duration

        n_threads = self.settings.n_clients
        per_thread_rate = (target_tps / n_threads) if target_tps else None
        threads = []
        for i in range(n_threads):
            handle = self.handles[i % len(self.handles)]
            thread_rng = self._gen_rng.substream(f"thread{i}")
            gen = YcsbGenerator(
                WORKLOADS[self.mix], self.settings, thread_rng,
                key_space=self._key_space,
            )
            # Stagger thread start so throttled arrivals interleave rather
            # than firing in lockstep.
            offset = (i / n_threads) * (1.0 / per_thread_rate) if per_thread_rate else 0.0
            proc = handle.node.spawn(
                self._thread_loop(handle, gen, result, per_thread_rate, offset),
                name=f"ycsb-thread-{i}",
            )
            proc.defuse()
            threads.append(proc)

        kernel.run(until=self._stop_at + drain)
        result.finished_at = min(kernel.now, self._stop_at)
        return result

    def _thread_loop(
        self,
        handle: ClientHandle,
        gen: YcsbGenerator,
        result: WorkloadResult,
        per_thread_rate: Optional[float],
        start_offset: float,
    ):
        kernel = self.cluster.kernel
        node = handle.node
        try:
            if start_offset > 0:
                yield node.sleep(start_offset)
            next_start = kernel.now
            while kernel.now < self._stop_at:
                if per_thread_rate:
                    if kernel.now < next_start:
                        yield node.sleep(next_start - kernel.now)
                    # Schedule the next arrival; if we are behind, fire
                    # immediately (closed-loop at saturation).
                    next_start = max(next_start + 1.0 / per_thread_rate, kernel.now)
                if kernel.now >= self._stop_at:
                    return
                yield from self._one_txn(handle, gen, result)
        except Interrupt:
            return  # client machine crashed

    def _one_txn(self, handle: ClientHandle, gen, result: WorkloadResult):
        kernel = self.cluster.kernel
        begin_at = kernel.now
        self._txn_counter += 1
        ctx = None
        try:
            ctx = yield from handle.txn.begin()
            yield from self._run_ycsb_ops(handle, ctx, gen.next_txn())
            yield from handle.txn.commit(ctx)
        except TxnAborted:
            result.aborted += 1
            if self.ledger is not None and ctx is not None:
                self.ledger.record_outcome(ctx)
            return
        except Interrupt:
            raise
        except ReproError:
            result.failed += 1
            return
        if self.ledger is not None:
            self.ledger.record(ctx, TABLE)
        now = kernel.now
        elapsed = now - begin_at
        result.throughput_ts.record(now)
        result.latency_ts.record(now, elapsed)
        if now >= result.measured_from and now <= self._stop_at:
            result.committed += 1
            result.latency.record(elapsed)

    def _run_ycsb_ops(self, handle: ClientHandle, ctx, ops):
        """Execute one YCSB transaction's operation list."""
        for kind, row, scan_length in ops:
            if kind == READ:
                yield from handle.txn.read(ctx, TABLE, row)
            elif kind in (UPDATE, INSERT):
                handle.txn.write(ctx, TABLE, row, f"w{self._txn_counter}")
            elif kind == SCAN:
                yield from handle.txn.scan(
                    ctx, TABLE, row, end_row=None, limit=scan_length
                )
            elif kind == RMW:
                value = yield from handle.txn.read(ctx, TABLE, row)
                handle.txn.write(
                    ctx, TABLE, row, f"{value}+w{self._txn_counter}"
                )
            else:  # pragma: no cover - generator only emits known kinds
                raise ReproError(f"unknown YCSB op kind {kind!r}")
