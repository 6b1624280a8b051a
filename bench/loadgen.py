"""The benchmark's own load generator.

Inputs are made here from ``--seed`` and nothing else; the program only
ever sees the generated operation lists.  The generator drives the public
client API -- ``ClientHandle.txn.begin/read/scan/write/commit`` on one
client machine with N session processes -- and keeps, per transaction,
the simulated instant of every call boundary.  From those instants come
the end-to-end latencies *and* the per-call stage times, so stages
telescope to the latency by construction.

Open loop: arrival ``i`` is due at ``t0 + i / rate``; a free session takes
the next arrival in order (FIFO) and latency is timed from the due time,
so arrivals during an outage wait and are counted.  Closed loop: each
session starts its next transaction the moment the last one returns.
No retries: an aborted or errored transaction counts against
``committed_share``.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from repro import TABLE
from repro.errors import ReproError, TxnAborted
from repro.kvstore.keys import row_key
from repro.sim import Interrupt

from spec import CLOSED, OPEN, WorkloadSpec

READ, UPDATE, INSERT, SCAN = "r", "u", "i", "s"

#: One operation: (kind, row, scan_limit) -- scan_limit is 0 except for SCAN.
Op = Tuple[str, str, int]

COMMITTED, ABORTED, ERROR, UNFINISHED = "committed", "aborted", "error", "unfinished"

#: Operations that are a client call taking simulated time (writes are
#: buffered), by the name of the layer they are charged to.
TIMED_CALLS = {READ: "kvstore.read", SCAN: "kvstore.scan"}


def call_names(ops) -> List[str]:
    """The timed client calls of one transaction, in order -- one per entry
    of :attr:`TxnRecord.marks`."""
    timed = [TIMED_CALLS[kind] for kind, _row, _limit in ops if kind in TIMED_CALLS]
    return ["txn.begin"] + timed + ["txn.commit"]

#: Host-time slice of the measured window, in simulated seconds.
SLICE_S = 0.5


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------

def _zipfian(n: int, theta: float, rng: random.Random):
    """YCSB's zipfian rank sampler over ``[0, n)`` (Gray et al.)."""
    zetan = sum(1.0 / (i ** theta) for i in range(1, n + 1))
    zeta2 = 1.0 + 0.5 ** theta
    alpha = 1.0 / (1.0 - theta)
    eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (1.0 - zeta2 / zetan)

    def sample() -> int:
        u = rng.random()
        uz = u * zetan
        if uz < 1.0:
            return 0
        if uz < zeta2:
            return 1
        return int(n * (eta * u - eta + 1.0) ** alpha)

    return sample


class TxnSource:
    """The seeded operation lists of one workload, in arrival order.

    ``source[i]`` is transaction ``i``'s operations.  The list is generated
    from one ``random.Random`` stream in index order, so it is a pure
    function of ``(spec, seed)`` however far it is extended.
    """

    def __init__(self, spec: WorkloadSpec, seed: int) -> None:
        self.spec = spec
        self._rng = random.Random(f"{spec.name}/{seed}")
        self._txns: List[Tuple[Op, ...]] = []
        self._inserted = 0
        rng, n = self._rng, spec.rows
        if spec.key_dist == "uniform":
            self._choose_row = lambda: rng.randrange(n)
        elif spec.key_dist == "zipfian":
            rank = _zipfian(n, spec.zipf_theta, rng)
            # Scramble ranks over the table so hot keys spread over regions.
            self._choose_row = lambda: (rank() * 2654435761) % n
        else:
            raise ValueError(f"unknown key distribution {spec.key_dist!r}")
        read, update, insert, _scan = spec.mix
        self._cuts = (read, read + update, read + update + insert)

    def __getitem__(self, i: int) -> Tuple[Op, ...]:
        if i >= len(self._txns):
            self.extend_to(i + 256)
        return self._txns[i]

    def extend_to(self, count: int) -> None:
        """Generate transactions up to index ``count`` (exclusive)."""
        while len(self._txns) < count:
            self._txns.append(self._next_txn())

    def _next_txn(self) -> Tuple[Op, ...]:
        spec, rng = self.spec, self._rng
        r_cut, u_cut, i_cut = self._cuts
        ops: List[Op] = []
        seen = set()
        while len(ops) < spec.ops_per_txn:
            u = rng.random()
            if u_cut <= u < i_cut:
                row = spec.rows + self._inserted
                self._inserted += 1
                ops.append((INSERT, row_key(row), 0))
                continue
            row = self._choose_row()
            if row in seen:
                continue  # distinct rows within a transaction, as in YCSB
            seen.add(row)
            if u < r_cut:
                ops.append((READ, row_key(row), 0))
            elif u < u_cut:
                ops.append((UPDATE, row_key(row), 0))
            else:
                ops.append((SCAN, row_key(row), 1 + rng.randrange(spec.max_scan_rows)))
        return tuple(ops)


def expected_txns(spec: WorkloadSpec) -> int:
    """How many operation lists to generate during set-up."""
    if spec.loop == OPEN:
        return int(spec.rate_tps * spec.duration_s)
    return int(1000 * spec.duration_s)  # generous; the source extends itself


# ----------------------------------------------------------------------
# per-transaction record
# ----------------------------------------------------------------------

class TxnRecord:
    """What the driver saw of one transaction (all times simulated).

    ``marks`` holds the instant each client call returned, in call order:
    begin, then one per read/scan, then commit.  Writes are buffered by the
    client and take no simulated time.
    """

    __slots__ = ("index", "due", "start", "late", "marks", "end", "outcome",
                 "commit_ts", "error")

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        self.due = due
        self.start = due
        self.late = False      # picked up after its due time (it queued)
        self.marks: List[float] = []
        self.end: Optional[float] = None
        self.outcome = UNFINISHED
        self.commit_ts: Optional[int] = None
        self.error: Optional[str] = None


# ----------------------------------------------------------------------
# the driver
# ----------------------------------------------------------------------

class LoadRun:
    """One run of one workload against one freshly built cluster."""

    def __init__(self, cluster, handle, spec: WorkloadSpec, source: TxnSource,
                 ledger=None) -> None:
        self.cluster = cluster
        self.handle = handle
        self.spec = spec
        self.source = source
        self.ledger = ledger
        self.kernel = cluster.kernel
        self.records: List[TxnRecord] = []
        self.bad_values = 0
        self.t0 = 0.0
        self.t_measure = 0.0
        self.t_end = 0.0
        self.crash_time: Optional[float] = None
        self.n_arrivals = (
            int(spec.rate_tps * spec.duration_s) if spec.loop == OPEN else None
        )
        #: Per measured slice: host seconds, the calibration loop's host
        #: seconds just before it, kernel events.
        self.slice_host_s: List[float] = []
        self.slice_calibration_s: List[float] = []
        self.slice_events: List[int] = []
        #: (sim time, global T_F, global T_P) at every slice boundary.
        self.threshold_samples: List[Tuple[float, int, int]] = []

    # -- sessions ----------------------------------------------------------

    def _session(self):
        kernel, node, spec = self.kernel, self.handle.node, self.spec
        open_loop = spec.loop == OPEN
        try:
            while True:
                i = len(self.records)
                if open_loop:
                    if i >= self.n_arrivals:
                        return
                    due = self.t0 + i / spec.rate_tps
                else:
                    if kernel.now >= self.t_end:
                        return
                    due = kernel.now
                rec = TxnRecord(i, due)
                self.records.append(rec)  # claims arrival i (FIFO)
                if due > kernel.now:
                    yield node.sleep(due - kernel.now)
                else:
                    rec.late = kernel.now > due
                rec.start = kernel.now
                yield from self._one_txn(rec, self.source[i])
        except Interrupt:
            return  # client machine crashed (no workload does that today)

    def _one_txn(self, rec: TxnRecord, ops):
        txn, now, marks = self.handle.txn, self.kernel, rec.marks
        value = f"w{rec.index}"
        ctx = None
        try:
            ctx = yield from txn.begin()
            marks.append(now.now)
            for kind, row, limit in ops:
                if kind == READ:
                    got = yield from txn.read(ctx, TABLE, row)
                    marks.append(now.now)
                    if type(got) is not str:
                        self.bad_values += 1  # every preloaded row has a value
                elif kind == SCAN:
                    rows = yield from txn.scan(ctx, TABLE, row, limit=limit)
                    marks.append(now.now)
                    if len(rows) > limit or (rows and rows[0][0] < row):
                        self.bad_values += 1
                else:
                    txn.write(ctx, TABLE, row, value)
            yield from txn.commit(ctx)
            marks.append(now.now)
        except TxnAborted:
            rec.outcome = ABORTED
            rec.end = now.now
            if self.ledger is not None and ctx is not None:
                self.ledger.record_outcome(ctx)
            return
        except ReproError as exc:
            rec.outcome = ERROR
            rec.end = now.now
            rec.error = repr(exc)
            return
        rec.outcome = COMMITTED
        rec.end = now.now
        rec.commit_ts = ctx.commit_ts
        if self.ledger is not None:
            self.ledger.record(ctx, TABLE)

    # -- execution -----------------------------------------------------------

    def execute(self, clock, enter=None, leave=None, calibrate=None) -> None:
        """Run warm-up, the measured window in host-timed slices, and drain.

        ``clock`` is the host clock (``time.perf_counter``).  ``enter`` and
        ``leave`` are called at the two edges of the measured window,
        outside the timed slices (counter snapshots, the profiler).
        ``calibrate`` (see hostclock.py) is timed before every slice.
        """
        spec, cluster, kernel = self.spec, self.cluster, self.kernel
        self.t0 = kernel.now
        self.t_measure = self.t0 + spec.warmup_s
        self.t_end = self.t0 + spec.duration_s
        for s in range(spec.sessions):
            self.handle.node.spawn(self._session(), name=f"session{s}").defuse()
        if spec.crash_at_s is not None:
            cluster.after(spec.crash_at_s, self._crash)
        cluster.run_until(self.t_measure)
        if enter:
            enter()
        n_slices = round(spec.measured_s / SLICE_S)
        rm = cluster.rm
        for j in range(1, n_slices + 1):
            boundary = self.t_end if j == n_slices else self.t_measure + j * SLICE_S
            if calibrate:
                self.slice_calibration_s.append(calibrate())
            events = kernel.event_count
            started = clock()
            cluster.run_until(boundary)
            self.slice_host_s.append(clock() - started)
            self.slice_events.append(kernel.event_count - events)
            if rm is not None:
                self.threshold_samples.append((boundary, rm.global_tf, rm.global_tp))
        if leave:
            leave()
        cluster.run_until(self.t_end + spec.drain_s)

    def _crash(self) -> None:
        self.crash_time = self.kernel.now
        self.cluster.crash_server(0)

    # -- views ---------------------------------------------------------------

    def measured(self) -> List[TxnRecord]:
        """Transactions whose due time lies in the measured window."""
        lo, hi = self.t_measure, self.t_end
        return [r for r in self.records if lo <= r.due < hi]

    def attempted(self) -> int:
        """Arrivals due in the measured window, served or not."""
        if self.spec.loop == CLOSED:
            return len(self.measured())
        rate, t0 = self.spec.rate_tps, self.t0
        return sum(
            1 for i in range(self.n_arrivals)
            if self.t_measure <= t0 + i / rate < self.t_end
        )


# ----------------------------------------------------------------------
# helpers shared by the metric extractors
# ----------------------------------------------------------------------

def percentile(sorted_values: List[float], p: float) -> float:
    """Exact percentile by linear interpolation; ``p`` in [0, 100]."""
    if not sorted_values:
        return 0.0
    rank = (p / 100.0) * (len(sorted_values) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    frac = rank - low
    return sorted_values[low] * (1.0 - frac) + sorted_values[high] * frac


class RegionMap:
    """Row -> region id, from the master's assignment table."""

    def __init__(self, assignments: Dict[str, str]) -> None:
        self.assignments = dict(assignments)
        pairs = sorted(
            (region.split(",", 1)[1], region) for region in assignments
        )
        self._starts = [start for start, _ in pairs]
        self._regions = [region for _, region in pairs]

    def region_of(self, row: str) -> str:
        """The region whose key range holds ``row``."""
        return self._regions[bisect_right(self._starts, row) - 1]

    def hosted_by(self, server: str) -> set:
        """Region ids assigned to ``server``."""
        return {r for r, s in self.assignments.items() if s == server}
