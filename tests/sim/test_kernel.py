"""Unit tests for the discrete-event kernel, events, and processes."""

import gc
from contextlib import contextmanager

import pytest

from repro.errors import ScheduleError, SimulationError
from repro.sim import Interrupt, Kernel
from repro.sim.equeue import make_queue


def test_timeout_advances_clock():
    k = Kernel()
    fired = []

    def proc(k):
        yield k.timeout(1.5)
        fired.append(k.now)
        yield k.timeout(0.5)
        fired.append(k.now)

    k.process(proc(k))
    k.run()
    assert fired == [1.5, 2.0]


def test_run_until_stops_at_time():
    k = Kernel()
    fired = []

    def proc(k):
        for _ in range(10):
            yield k.timeout(1.0)
            fired.append(k.now)

    k.process(proc(k))
    k.run(until=3.5)
    assert fired == [1.0, 2.0, 3.0]
    assert k.now == 3.5


def test_process_return_value():
    k = Kernel()

    def proc(k):
        yield k.timeout(1)
        return 42

    p = k.process(proc(k))
    assert k.run_until_complete(p) == 42


def test_event_succeed_wakes_waiter_with_value():
    k = Kernel()
    ev = k.event()
    got = []

    def waiter(k, ev):
        value = yield ev
        got.append(value)

    def firer(k, ev):
        yield k.timeout(2)
        ev.succeed("hello")

    k.process(waiter(k, ev))
    k.process(firer(k, ev))
    k.run()
    assert got == ["hello"]


def test_event_fail_raises_in_waiter():
    k = Kernel()
    ev = k.event()
    caught = []

    def waiter(k, ev):
        try:
            yield ev
        except ValueError as exc:
            caught.append(str(exc))

    def firer(k, ev):
        yield k.timeout(1)
        ev.fail(ValueError("boom"))

    k.process(waiter(k, ev))
    k.process(firer(k, ev))
    k.run()
    assert caught == ["boom"]


def test_event_cannot_trigger_twice():
    k = Kernel()
    ev = k.event()
    ev.succeed(1)
    with pytest.raises(ScheduleError):
        ev.succeed(2)


def test_all_of_waits_for_every_child():
    k = Kernel()
    done = []

    def proc(k):
        values = yield k.all_of([k.timeout(1, "a"), k.timeout(3, "b"), k.timeout(2, "c")])
        done.append((k.now, values))

    k.process(proc(k))
    k.run()
    assert done == [(3.0, ["a", "b", "c"])]


def test_interrupt_raises_at_wait_point():
    k = Kernel()
    trace = []

    def victim(k):
        try:
            yield k.timeout(100)
            trace.append("not reached")
        except Interrupt as intr:
            trace.append(("interrupted", intr.cause, k.now))

    def killer(k, proc):
        yield k.timeout(2)
        proc.interrupt("crash")

    victim_proc = k.process(victim(k))
    k.process(killer(k, victim_proc))
    k.run()
    assert trace == [("interrupted", "crash", 2.0)]


def test_interrupt_finished_process_is_noop():
    k = Kernel()

    def quick(k):
        yield k.timeout(1)

    p = k.process(quick(k))
    k.run()
    p.interrupt("too late")  # must not raise
    k.run()


def test_unhandled_process_exception_escalates_in_strict_mode():
    k = Kernel(strict=True)

    def bad(k):
        yield k.timeout(1)
        raise RuntimeError("bug in process")

    k.process(bad(k))
    with pytest.raises(SimulationError):
        k.run()


def test_handled_process_exception_does_not_escalate():
    k = Kernel(strict=True)
    caught = []

    def bad(k):
        yield k.timeout(1)
        raise RuntimeError("bug")

    def waiter(k, p):
        try:
            yield p
        except RuntimeError as exc:
            caught.append(str(exc))

    p = k.process(bad(k))
    k.process(waiter(k, p))
    k.run()
    assert caught == ["bug"]


def test_non_strict_mode_swallows_process_failures():
    k = Kernel(strict=False)

    def bad(k):
        yield k.timeout(1)
        raise RuntimeError("bug")

    k.process(bad(k))
    k.run()
    assert len(k.dead_processes) == 1


def test_yielding_non_event_fails_the_process():
    k = Kernel(strict=True)

    def bad(k):
        yield 42

    k.process(bad(k))
    with pytest.raises(SimulationError):
        k.run()


def test_same_seed_same_trace():
    def run(seed):
        k = Kernel(seed=seed)
        trace = []

        def proc(k, name):
            for _ in range(20):
                yield k.timeout(k.rng.uniform(0, 1))
                trace.append((name, round(k.now, 9)))

        for name in ("a", "b", "c"):
            k.process(proc(k, name))
        k.run()
        return trace

    assert run(7) == run(7)
    assert run(7) != run(8)


def test_negative_timeout_rejected():
    k = Kernel()
    with pytest.raises(ScheduleError):
        k.timeout(-1)


def test_run_until_complete_detects_deadlock():
    k = Kernel()

    def stuck(k):
        yield k.event()  # never triggered

    p = k.process(stuck(k))
    with pytest.raises(SimulationError, match="deadlock"):
        k.run_until_complete(p)


def test_immediate_events_processed_in_fifo_order():
    k = Kernel()
    order = []

    def proc(k, name):
        yield k.timeout(0)
        order.append(name)

    for name in ("first", "second", "third"):
        k.process(proc(k, name))
    k.run()
    assert order == ["first", "second", "third"]


class _Queue(list):
    """A list to stand in for the kernel's queue and count its length checks."""


@pytest.mark.parametrize("queue_impl", ["calendar", "heap", "kernel"])
def test_run_until_complete_does_not_scale_with_standing_timers(queue_impl, monkeypatch):
    """The per-step emptiness check is O(1): it never measures the queue,
    however many far-future timers stand in it.  The kernel's queue is a
    plain list, whose length is O(1); ``[kernel]`` counts the checks, at
    most two per step.  No kernel runs on the two queue classes (kept for
    bench/micro.py); ``[calendar]`` and ``[heap]`` hold their ``__bool__``
    to the same contract directly."""

    def walked(self):
        raise AssertionError("emptiness check measured the whole queue")

    if queue_impl != "kernel":
        queue = make_queue(queue_impl)
        for i in range(10_000):
            queue.push((1000.0 + i, 1, i, None, None))
        monkeypatch.setattr(type(queue), "__len__", walked)
        for i in range(200):
            queue.push((0.01 * i, 1, 10_000 + i, None, None))
            assert queue
            assert queue.pop()[0] == 0.01 * i
        assert queue
        return

    k = Kernel()
    k._queue = _Queue()
    for i in range(10_000):
        k.call_later(1000.0 + i, lambda _arg: None)
    checks = []
    monkeypatch.setattr(_Queue, "__len__", lambda self: checks.append(1) or list.__len__(self))

    def ticker(k):
        for _ in range(200):
            yield k.timeout(0.01)
        return k.now

    assert k.run_until_complete(k.process(ticker(k))) == pytest.approx(2.0)
    k.step()  # the other caller of the emptiness check
    assert 0 < len(checks) <= 2 * k.event_count


def test_call_at_fires_at_the_exact_instant():
    k = Kernel()
    fired = []
    k.run(until=0.1)
    when = k.now + 0.7  # not representable as now + (when - now) in general
    k.call_at(when, lambda arg: fired.append((k.now, arg)), "x")
    k.call_later(0.2, lambda arg: fired.append((k.now, arg)), "earlier")
    k.run()
    assert fired == [(0.1 + 0.2, "earlier"), (when, "x")]
    with pytest.raises(ScheduleError):
        k.call_at(k.now - 1.0, lambda _arg: None)


def test_kernel_process_never_starts_inside_the_caller():
    k = Kernel()
    started = []

    def child(k):
        started.append(k.now)
        yield k.timeout(0)

    def parent(k):
        k.process(child(k))
        assert not started  # kicked off from the kernel loop, not here
        yield k.timeout(0)

    k.process(parent(k))
    assert not started
    k.run()
    assert started == [0.0]


# ----------------------------------------------------------------------
# the cyclic collector is paused inside run()
# ----------------------------------------------------------------------
@contextmanager
def collector(enabled):
    """Run the body with the automatic collector on or off, then restore."""
    collecting = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if collecting else gc.disable)()


def test_the_collector_is_off_inside_a_process_step():
    k = Kernel()
    seen = []

    def proc(k):
        seen.append(gc.isenabled())
        yield k.timeout(1.0)
        seen.append(gc.isenabled())

    k.process(proc(k))
    with collector(enabled=True):
        k.run()
        assert gc.isenabled()
    assert seen == [False, False]


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_collector_setting(enabled):
    k = Kernel()

    def proc(k):
        yield k.timeout(1.0)

    k.process(proc(k))
    with collector(enabled):
        k.run(until=0.5)
        assert gc.isenabled() is enabled
        k.run()
        assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_collector_setting_when_it_raises(enabled):
    k = Kernel(strict=True)

    def bad(k):
        yield k.timeout(1.0)
        raise RuntimeError("bug in process")

    k.process(bad(k))
    with collector(enabled):
        with pytest.raises(SimulationError):
            k.run()
        assert gc.isenabled() is enabled
