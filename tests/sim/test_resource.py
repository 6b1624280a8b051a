"""Unit tests for Resource and SimQueue."""

import pytest

from repro.errors import ScheduleError
from repro.sim import Interrupt, Kernel, Resource, SimQueue
from repro.sim.events import Timeout
from tests.sim.kernel_queue import head, target


def run_popping(k):
    """Run ``k`` until its queue drains; every entry's event or scheduled
    function, in pop order."""
    popped = []
    while (entry := head(k)) is not None:
        popped.append(target(entry))
        k.step()
    return popped


def test_resource_limits_parallelism():
    k = Kernel()
    res = Resource(k, capacity=2)
    done = []

    def worker(k, res, name):
        yield from res.use(1.0)
        done.append((name, k.now))

    for name in "abcd":
        k.process(worker(k, res, name))
    k.run()
    # Two run in [0,1], the next two in [1,2].
    assert [t for _n, t in done] == [1.0, 1.0, 2.0, 2.0]


def test_resource_fifo_grant_order():
    k = Kernel()
    res = Resource(k, capacity=1)
    order = []

    def worker(k, res, name):
        yield from res.use(1.0)
        order.append(name)

    for name in ("a", "b", "c"):
        k.process(worker(k, res, name))
    k.run()
    assert order == ["a", "b", "c"]


def test_timed_waiter_starts_its_service_at_the_release_instant():
    k = Kernel()
    res = Resource(k, capacity=1)
    served = []

    def worker(k, res, hold):
        yield from res.use(hold)
        served.append(k.now)

    k.process(worker(k, res, 1.0))
    waiter = k.process(worker(k, res, 2.0))
    k.run(until=0.5)
    assert res.queue_length == 1
    k.step()  # the holder's service ends at t=1.0 and it releases
    # The waiter is already in its service: no grant is left to pop.
    assert k.now == 1.0 and isinstance(waiter.target, Timeout)
    assert res.in_use == 1 and res.queue_length == 0
    popped = run_popping(k)
    assert served == [1.0, 3.0]
    assert [e for e in popped if getattr(e, "_value", None) is res] == []


def test_untimed_waiters_resume_after_the_releasers_step():
    """A ``use(0.0)`` waiter and a raw ``request()`` waiter act the moment
    they are granted, so their grants stay queued: each resumes only once
    the process that released has finished its step.  The FlushTracker
    lock relies on this order."""
    k = Kernel()
    res = Resource(k, capacity=1)
    order = []

    def holder():
        yield from res.use(1.0)
        order.append("holder")

    def zero_hold():
        yield from res.use(0.0)
        order.append("zero-hold")

    def raw():
        yield res.request()
        order.append("raw")
        res.release()

    for gen in (holder(), zero_hold(), raw()):
        k.process(gen)
    popped = run_popping(k)
    assert order == ["holder", "zero-hold", "raw"] and k.now == 1.0
    assert len([e for e in popped if getattr(e, "_value", None) is res]) == 2


def test_release_without_request_raises():
    k = Kernel()
    res = Resource(k, capacity=1)
    with pytest.raises(ScheduleError):
        res.release()


def test_interrupted_waiter_does_not_leak_slot():
    k = Kernel()
    res = Resource(k, capacity=1)
    finished = []

    def holder(k, res):
        yield from res.use(5.0)
        finished.append("holder")

    def victim(k, res):
        try:
            yield from res.use(1.0)
            finished.append("victim")
        except Interrupt:
            finished.append("victim-interrupted")

    def late(k, res):
        yield k.timeout(6.0)
        yield from res.use(1.0)
        finished.append("late")

    k.process(holder(k, res))
    v = k.process(victim(k, res))

    def killer(k, v):
        yield k.timeout(2.0)
        v.interrupt("crash")

    k.process(killer(k, v))
    k.process(late(k, res))
    k.run()
    assert "victim-interrupted" in finished
    assert "late" in finished  # slot was not leaked
    assert res.in_use == 0


def test_fifo_order_under_contention_with_staggered_arrivals():
    k = Kernel()
    res = Resource(k, capacity=2)
    served = []

    def worker(k, res, name, arrive, hold):
        yield k.timeout(arrive)
        yield from res.use(hold)
        served.append((name, k.now))

    # a and b take the free slots at once; c, d, e queue in arrival order
    # and are granted as slots come back, whoever holds them.
    for name, arrive, hold in (
        ("a", 0.0, 3.0), ("b", 0.0, 1.0), ("c", 0.1, 1.0),
        ("d", 0.2, 0.5), ("e", 0.3, 0.1),
    ):
        k.process(worker(k, res, name, arrive, hold))
    k.run()
    assert served == [("b", 1.0), ("c", 2.0), ("d", 2.5), ("e", 2.6), ("a", 3.0)]
    assert res.in_use == 0 and res.queue_length == 0


def test_holder_interrupted_mid_use_returns_its_slot():
    k = Kernel()
    res = Resource(k, capacity=1)
    seen = []

    def holder(k, res):
        try:
            yield from res.use(10.0)
        except Interrupt:
            seen.append(("holder-interrupted", k.now))

    def waiter(k, res):
        yield k.timeout(1.0)
        yield from res.use(1.0)
        seen.append(("waiter", k.now))

    h = k.process(holder(k, res))
    k.process(waiter(k, res))
    k.call_later(2.0, lambda _arg: h.interrupt("crash"))
    k.run()
    # The queued waiter gets the slot the moment the holder is cut off.
    assert seen == [("holder-interrupted", 2.0), ("waiter", 3.0)]
    assert res.in_use == 0


def test_free_slot_is_taken_without_suspending():
    k = Kernel()
    res = Resource(k, capacity=1)
    # use(0.0) on a free resource never yields: it is over in one step.
    with pytest.raises(StopIteration):
        next(res.use(0.0))
    assert res.in_use == 0
    # Holding for a while yields the service timeout only, slot in hand.
    held = res.use(1.0)
    assert type(next(held)).__name__ == "Timeout"
    assert res.in_use == 1
    held.close()
    assert res.in_use == 0

    def worker(k, res):
        yield from res.use(0.0)
        yield from res.use(0.0)

    before = k.event_count
    k.run_until_complete(k.process(worker(k, res)))
    assert k.event_count - before == 1  # the process's own kick-off, nothing for the slots


def test_request_on_a_free_resource_is_granted_in_place():
    k = Kernel()
    res = Resource(k, capacity=1)
    grant = res.request()
    assert grant.processed and grant.value is res and res.in_use == 1
    queued = res.request()
    assert not queued.triggered and res.queue_length == 1
    res.cancel(grant)  # cancelling a grant gives the slot to the next in line
    assert queued.triggered and res.in_use == 1
    res.cancel(queued)
    assert res.in_use == 0


def test_capacity_must_be_positive():
    k = Kernel()
    with pytest.raises(ScheduleError):
        Resource(k, capacity=0)


def test_simqueue_get_blocks_until_put():
    k = Kernel()
    q = SimQueue(k)
    got = []

    def consumer(k, q):
        item = yield q.get()
        got.append((item, k.now))

    def producer(k, q):
        yield k.timeout(3.0)
        q.put("item")

    k.process(consumer(k, q))
    k.process(producer(k, q))
    k.run()
    assert got == [("item", 3.0)]


def test_simqueue_immediate_get_when_item_present():
    k = Kernel()
    q = SimQueue(k)
    q.put(1)
    q.put(2)
    q.put(3)
    got = []

    def consumer(k, q):
        got.append((yield q.get()))
        got.append((yield q.get()))

    # A get of an item already queued still resumes through the kernel
    # queue, after the getter's step.
    first = q.get()
    assert first.triggered and not first.processed
    k.run()
    assert first.processed and first.value == 1
    k.process(consumer(k, q))
    k.run()
    assert got == [2, 3]


def test_put_to_a_parked_getter_runs_it_before_put_returns():
    k = Kernel()
    q = SimQueue(k)
    got = []

    def consumer(k, q):
        got.append(((yield q.get()), k.now))

    k.process(consumer(k, q))
    k.run(until=1.0)
    before = k.event_count
    q.put("item")
    assert got == [("item", 1.0)] and len(q) == 0
    k.run()
    assert k.event_count - before == 1  # the consumer's own end, no wake-up


def test_put_skips_a_getter_interrupted_away():
    k = Kernel()
    q = SimQueue(k)
    got = []

    def consumer(k, q):
        try:
            got.append((yield q.get()))
        except Interrupt:
            got.append("interrupted")

    victim = k.process(consumer(k, q))
    k.run()
    victim.interrupt("crash")
    q.put("item")  # the victim's get is still pending, but nobody waits on it
    assert len(q) == 1
    k.run()
    assert got == ["interrupted"] and len(q) == 1
    k.process(consumer(k, q))
    k.run()
    assert got == ["interrupted", "item"]


def test_simqueue_drain():
    k = Kernel()
    q = SimQueue(k)
    for i in range(5):
        q.put(i)
    assert q.drain() == [0, 1, 2, 3, 4]
    assert len(q) == 0


def test_simqueue_fifo_across_getters():
    k = Kernel()
    q = SimQueue(k)
    got = []

    def consumer(k, q, name):
        item = yield q.get()
        got.append((name, item))

    k.process(consumer(k, q, "g1"))
    k.process(consumer(k, q, "g2"))

    def producer(k, q):
        yield k.timeout(1)
        q.put("x")
        q.put("y")

    k.process(producer(k, q))
    k.run()
    assert got == [("g1", "x"), ("g2", "y")]
