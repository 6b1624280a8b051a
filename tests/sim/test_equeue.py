"""Property suite for the calendar event queue.

The contract: :class:`CalendarEventQueue` pops entries in exactly the same
``(time, priority, seq)`` order as the reference single heap, for any
schedule -- including the kernel's real access pattern of interleaved
pushes and pops, horizon pushbacks (``run(until)`` pops an entry past the
horizon and pushes the identical tuple back), and zero-delay triggers at
the current time.
"""

import functools
import random

import pytest

from repro.sim.equeue import (
    DEFAULT_BUCKET_WIDTH,
    CalendarEventQueue,
    HeapEventQueue,
    make_queue,
)
from repro.sim.kernel import Kernel


def _random_entries(rng, n, time_scale):
    seq = 0
    entries = []
    now = 0.0
    for _ in range(n):
        # Mostly forward in time, sometimes exactly "now" (zero-delay
        # triggers), with a mix of priorities and strictly increasing seq.
        seq += 1
        if rng.random() < 0.2:
            when = now
        else:
            when = now + rng.random() * time_scale
        priority = 0 if rng.random() < 0.3 else 1
        entries.append((when, priority, seq, object()))
    return entries


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("bucket_width", [0.0005, 0.005, 0.05])
def test_pop_order_matches_heap_bulk(seed, bucket_width):
    rng = random.Random(seed)
    entries = _random_entries(rng, 2000, time_scale=0.4)
    cal = CalendarEventQueue(bucket_width)
    heap = HeapEventQueue()
    for entry in entries:
        cal.push(entry)
        heap.push(entry)
    assert len(cal) == len(heap) == len(entries)
    for _ in range(len(entries)):
        assert cal.pop() == heap.pop()
    assert len(cal) == 0


@pytest.mark.parametrize("seed", [10, 11, 12, 13, 14])
def test_pop_order_matches_heap_interleaved(seed):
    """Kernel-realistic mix: pushes scheduling relative to the current
    simulated time, pops advancing it, and occasional pushbacks."""
    rng = random.Random(seed)
    cal = CalendarEventQueue(DEFAULT_BUCKET_WIDTH)
    heap = HeapEventQueue()
    now = 0.0
    seq = 0
    for _ in range(5000):
        op = rng.random()
        if op < 0.55 or len(heap) == 0:
            seq += 1
            delay = 0.0 if rng.random() < 0.25 else rng.random() * 0.08
            priority = 0 if rng.random() < 0.2 else 1
            entry = (now + delay, priority, seq, seq)
            cal.push(entry)
            heap.push(entry)
        elif op < 0.95:
            a = cal.pop()
            b = heap.pop()
            assert a == b
            now = a[0]
        else:
            # run(until)-style pushback: pop then reinsert the same tuple.
            a = cal.pop()
            b = heap.pop()
            assert a == b
            cal.push(a)
            heap.push(b)
    while len(heap):
        assert cal.pop() == heap.pop()


def test_peek_matches_pop():
    rng = random.Random(99)
    cal = CalendarEventQueue(0.01)
    for entry in _random_entries(rng, 500, time_scale=0.3):
        cal.push(entry)
    while True:
        head = cal.peek()
        if head is None:
            break
        assert cal.pop() == head


def test_empty_queue_behaviour():
    cal = CalendarEventQueue()
    assert cal.peek() is None
    assert len(cal) == 0
    with pytest.raises(IndexError):
        cal.pop()
    heap = HeapEventQueue()
    assert heap.peek() is None
    with pytest.raises(IndexError):
        heap.pop()


@pytest.mark.parametrize("impl", ["calendar", "heap"])
def test_truthiness_is_emptiness_and_len_stays_exact(impl):
    queue = make_queue(impl)
    assert not queue and len(queue) == 0
    queue.push((1000.0, 1, 1, object()))  # far bucket only
    assert queue and len(queue) == 1
    queue.push((0.0, 1, 2, object()))
    assert queue.peek()[0] == 0.0  # migrates a bucket into the near heap
    assert queue and len(queue) == 2
    queue.pop()
    assert queue and len(queue) == 1  # near drained, far still occupied
    queue.pop()
    assert not queue and len(queue) == 0


def test_bucket_width_must_be_positive():
    with pytest.raises(ValueError):
        CalendarEventQueue(0.0)
    with pytest.raises(ValueError):
        CalendarEventQueue(-1.0)


def test_make_queue_dispatch():
    assert isinstance(make_queue("calendar"), CalendarEventQueue)
    assert isinstance(make_queue("heap"), HeapEventQueue)
    assert make_queue("calendar", 0.25).bucket_width == 0.25
    with pytest.raises(ValueError):
        make_queue("btree")


def _run_scenario(queue_impl):
    """A small simulation with timers, priorities, and nested processes;
    returns the observable trace."""
    kernel = Kernel(seed=7, queue_impl=queue_impl)
    trace = []

    def worker(name, delays):
        for d in delays:
            yield kernel.timeout(d)
            trace.append((round(kernel.now, 9), name))

    def spawner():
        kernel.process(worker("a", [0.013, 0.001, 0.021]))
        kernel.process(worker("b", [0.0, 0.013, 0.05]))
        yield kernel.timeout(0.04)
        kernel.process(worker("c", [0.0, 0.002]))

    kernel.process(spawner())
    kernel.run(until=0.2)
    trace.append(("events", kernel.event_count))
    return trace


def test_kernel_trace_identical_across_queue_impls():
    assert _run_scenario("calendar") == _run_scenario("heap")

def _export_workload(tmp_path, tag):
    """Run the CLI workload; return the export bytes."""
    from repro.cli import main

    metrics = tmp_path / f"metrics-{tag}.json"
    history = tmp_path / f"history-{tag}.json"
    rc = main([
        "workload", "--seed", "3", "--duration", "6", "--tps", "120",
        "--metrics-json", str(metrics),
        "--history-json", str(history),
    ])
    assert rc == 0
    return metrics.read_bytes(), history.read_bytes()


def test_same_seed_exports_byte_identical_across_queue_impls(tmp_path, monkeypatch):
    """The queue swap is invisible: same seed, same wire-level history and
    metrics down to the byte.  The heap queue is the test-side reference,
    so it is injected here rather than selected by a setting."""
    cal_metrics, cal_history = _export_workload(tmp_path, "calendar")
    monkeypatch.setattr(
        "repro.cluster.Kernel", functools.partial(Kernel, queue_impl="heap")
    )
    heap_metrics, heap_history = _export_workload(tmp_path, "heap")
    assert cal_metrics == heap_metrics
    assert cal_history == heap_history
