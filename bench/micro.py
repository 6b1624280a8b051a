"""Micro-benches: one layer's public entry point each, host operations/s.

Every bench builds its input untimed, does one untimed warm-up repetition,
then reports the median of five short timed repetitions, in host seconds at
reference speed (hostclock.py).  They say how fast a layer is on its own;
``host_share.*`` says how much of a workload's host time the layer gets;
together they predict ``host_txn_per_s``.

Run alone with ``python bench/micro.py``; ``run.py --trace 1`` includes
the same numbers.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time
from typing import Callable, Dict, Optional, Tuple

if __name__ == "__main__":
    sys.path.insert(
        1, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    )

from repro import TABLE, ClusterConfig, SimCluster
from repro.check import SerializabilityChecker, SIChecker
from repro.kvstore.keys import Cell, row_key
from repro.kvstore.memstore import MemStore
from repro.metrics.spans import SpanTracer
from repro.sim import Kernel, Network, Node
from repro.sim.equeue import make_queue
from repro.storage.framing import checksum
from repro.txn.concurrency import SICertifier, SSIWindow
from repro.txn.log import LogRecord, RecoveryLog

from hostclock import at_reference_speed, calibrate
from loadgen import LoadRun, TxnSource
from spec import CLOSED, WorkloadSpec

REPETITIONS = 5

#: What a bench factory returns: operations per repetition, the timed
#: callable, and an optional untimed callable run before each repetition.
Bench = Tuple[int, Callable[[], None], Optional[Callable[[], None]]]


def _small_cluster(rows: int, isolation: str = "si") -> SimCluster:
    config = ClusterConfig(seed=1)
    config.workload.n_rows = rows
    config.kv.n_regions = 4
    config.txn.isolation = isolation
    cluster = SimCluster(config).start()
    cluster.preload()
    return cluster


def _run_to_completion(cluster: SimCluster, generator) -> None:
    done = cluster.kernel.process(generator)
    while not done.triggered:
        cluster.run_until(cluster.kernel.now + 1.0)


# -- sim -------------------------------------------------------------------

def _equeue(impl: str) -> Bench:
    """Hold model: 2,000 entries resident, 50,000 pop+push pairs."""
    ops = 50_000
    rng = random.Random(1)
    steps = [rng.random() * 0.02 for _ in range(ops)]

    def run():
        queue = make_queue(impl)
        for seq in range(2_000):
            queue.push((steps[seq], 1, seq, None))
        seq = 2_000
        for step in steps:
            when = queue.pop()[0]
            seq += 1
            queue.push((when + step, 1, seq, None))
    return ops, run, None


def _kernel_timers() -> Bench:
    """50 processes each yielding 800 timeouts: 40,000 timer events."""
    ops = 40_000

    def run():
        kernel = Kernel(seed=1)

        def chain(n):
            for _ in range(n):
                yield kernel.timeout(0.001)
        for _ in range(50):
            kernel.process(chain(ops // 50))
        kernel.run()
    return ops, run, None


class _Echo(Node):
    def rpc_echo(self, sender, x):
        return x


def _echo_pair():
    kernel = Kernel(seed=1)
    net = Network(kernel)
    _Echo(kernel, net, "server")
    return kernel, Node(kernel, net, "client")


def _network_rpc() -> Bench:
    """4,000 sequential echo RPC round trips between two nodes."""
    ops = 4_000

    def run():
        kernel, client = _echo_pair()

        def caller():
            for i in range(ops):
                yield client.call("server", "echo", x=i)
        kernel.process(caller())
        kernel.run()
    return ops, run, None


def _node_call_batch() -> Bench:
    """250 batches of 32 echo items through Node.call_batch: 8,000 items."""
    batches, width = 250, 32

    def run():
        kernel, client = _echo_pair()

        def caller():
            for b in range(batches):
                items = [{"x": b * width + i} for i in range(width)]
                yield kernel.all_of(client.call_batch("server", "echo", items))
        kernel.process(caller())
        kernel.run()
    return batches * width, run, None


# -- txn -------------------------------------------------------------------

def _write_sets(n: int, rng: random.Random):
    return [
        [(TABLE, row_key(rng.randrange(50_000)), "f") for _ in range(5)]
        for _ in range(n)
    ]


def _certify_si() -> Bench:
    """20,000 certify+record calls, 5 write keys each, 50k-row key space."""
    ops = 20_000
    sets = _write_sets(ops, random.Random(1))

    def run():
        certifier = SICertifier()
        for ts, keys in enumerate(sets, start=1):
            if certifier.certify(ts - 4, keys) is None:
                certifier.record(ts, keys)
    return ops, run, None


def _certify_ssi() -> Bench:
    """5,000 check+admit calls, 5 write and 5 read keys each."""
    ops = 5_000
    rng = random.Random(1)
    writes = _write_sets(ops, rng)
    reads = [[(key, 0) for key in keys] for keys in _write_sets(ops, rng)]

    def run():
        window = SSIWindow()
        for ts, (w, r) in enumerate(zip(writes, reads), start=1):
            if window.check(ts - 4, w, r) is None:
                window.admit(ts - 4, ts, w, r)
    return ops, run, None


def _log_append() -> Bench:
    """6,400 RecoveryLog.append calls in groups of 64 (one sync per group)."""
    groups, width = 100, 64
    cells = {TABLE: [(row_key(i), "f", 0, "v") for i in range(5)]}

    def run():
        kernel = Kernel(seed=1)
        log = RecoveryLog(Node(kernel, Network(kernel), "tm"))

        def writer():
            ts = 0
            for _ in range(groups):
                done = []
                for _ in range(width):
                    ts += 1
                    done.append(log.append(LogRecord(ts, "c", cells, nbytes=480)))
                yield kernel.all_of(done)
        kernel.process(writer())
        kernel.run()
    return groups * width, run, None


# -- kvstore ---------------------------------------------------------------

def _wal_append() -> Bench:
    """20,000 WriteAheadLog.append calls of 3 cells, synced every 500."""
    ops = 20_000
    cluster = _small_cluster(1_000)
    wal = cluster.servers[0].wal
    cells = [(row_key(i), "f", 1, "v") for i in range(3)]

    def run():
        for i in range(ops):
            wal.append(f"{TABLE},", i, cells)
            if i % 500 == 499:
                _run_to_completion(cluster, wal.sync())
    return ops, run, None


def _memstore_put() -> Bench:
    """50,000 MemStore.put calls over 5,000 rows."""
    ops = 50_000
    cells = [Cell(row_key(i % 5_000), "f", i, "v") for i in range(ops)]

    def run():
        store = MemStore()
        for cell in cells:
            store.put(cell)
    return ops, run, None


def _sstable_parse() -> Bench:
    """warm_caches() over a freshly preloaded 20,000-row table."""
    rows = 20_000
    fresh = []

    def before():
        # A new cluster per repetition, so no block parse is memoised.
        fresh[:] = [_small_cluster(rows)]

    def run():
        fresh[0].warm_caches()
    return rows, run, before


def _scan_rows() -> Bench:
    """200 KvClient.scan calls of 50 rows over a warm 5,000-row table."""
    scans, width = 200, 50
    cluster = _small_cluster(5_000)
    cluster.warm_caches()
    kv = cluster.add_client("micro").kv
    rng = random.Random(1)
    starts = [row_key(rng.randrange(4_900)) for _ in range(scans)]

    def scanner():
        for start in starts:
            got = yield from kv.scan(TABLE, start, None, max_version=1, limit=width)
            if len(got) != width:
                raise AssertionError(f"scan returned {len(got)} rows")

    def run():
        _run_to_completion(cluster, scanner())
    return scans * width, run, None


# -- storage, metrics, check -----------------------------------------------

def _frame_roundtrip() -> Bench:
    """20,000 records of 3 cells: checksum on write, verify on read."""
    ops = 20_000
    payloads = [
        (f"{TABLE},", i, [(row_key(i + j), "f", i, "v") for j in range(3)])
        for i in range(ops)
    ]

    def run():
        framed = [(p, checksum(p)) for p in payloads]
        for payload, crc in framed:
            if checksum(payload) != crc:
                raise AssertionError("checksum mismatch")
    return ops, run, None


def _spans() -> Bench:
    """50,000 SpanTracer begin/end pairs with a txn key."""
    ops = 50_000

    def run():
        tracer = SpanTracer(clock=lambda: 0.0)
        for i in range(ops):
            tracer.begin("micro.stage", txn=f"c:{i}").end()
    return ops, run, None


def _checker(isolation: str) -> Bench:
    """The mode's oracle over a recorded history: 20 closed-loop sessions,
    3 simulated seconds, paper mix on 2,000 rows (about 1,700 txns)."""
    spec = WorkloadSpec(
        name="micro_history", why="", rows=2_000, loop=CLOSED, sessions=20,
        duration_s=3.0, warmup_s=0.0, isolation=isolation,
    )
    cluster = _small_cluster(spec.rows, isolation)
    cluster.warm_caches()
    events = cluster.attach_history_recorder().events
    load = LoadRun(cluster, cluster.add_client("micro"), spec, TxnSource(spec, 1))
    load.execute(time.perf_counter)
    if isolation == "si":
        check = lambda: SIChecker(events).check()
    else:
        check = lambda: SerializabilityChecker(events, mode="ssi").check()

    def run():
        if not check().ok:
            raise AssertionError(f"{isolation} oracle found anomalies")
    return len(load.records), run, None


BENCHES: Dict[str, Callable[[], Bench]] = {
    "sim.equeue_calendar_push_pop_per_s": lambda: _equeue("calendar"),
    "sim.equeue_heap_push_pop_per_s": lambda: _equeue("heap"),
    "sim.kernel_timer_events_per_s": _kernel_timers,
    "sim.network_rpc_roundtrips_per_s": _network_rpc,
    "sim.node_call_batch_items_per_s": _node_call_batch,
    "txn.certify_si_per_s": _certify_si,
    "txn.certify_ssi_per_s": _certify_ssi,
    "txn.log_append_per_s": _log_append,
    "kvstore.wal_append_per_s": _wal_append,
    "kvstore.memstore_put_per_s": _memstore_put,
    "kvstore.sstable_parse_rows_per_s": _sstable_parse,
    "kvstore.scan_rows_per_s": _scan_rows,
    "storage.frame_roundtrip_per_s": _frame_roundtrip,
    "metrics.span_per_s": _spans,
    "check.sichecker_txn_per_s": lambda: _checker("si"),
    "check.serializability_txn_per_s": lambda: _checker("ssi"),
}


def run_all(clock=time.perf_counter) -> Dict[str, dict]:
    """``{name: {"value": median ops/s, "ops": n, "samples": [...]}}``."""
    results = {}
    for name, factory in BENCHES.items():
        ops, run, before = factory()
        rates = []
        for repetition in range(REPETITIONS + 1):
            if before:
                before()
            calibration_s = calibrate()
            started = clock()
            run()
            elapsed = at_reference_speed(clock() - started, calibration_s)
            if repetition:  # the first repetition is the warm-up
                rates.append(ops / elapsed)
        results[name] = {
            "value": statistics.median(rates), "ops": ops, "samples": rates,
        }
    return results


if __name__ == "__main__":
    for bench, result in run_all().items():
        print(f"{bench:40s} {result['value']:14.1f} 1/s   "
              f"({result['ops']} ops, median of {REPETITIONS})")
