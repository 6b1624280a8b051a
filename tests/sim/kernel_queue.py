"""Reading the kernel's event queue from tests, in one place.

``Kernel._queue`` is a plain list kept as a heap by :mod:`heapq`; each
entry is ``(when, priority, seq, fn, arg)``, where ``fn is None`` marks
an event (``arg``) and anything else is the call ``fn(arg)``.  Whoever
schedules pushes with ``heappush`` and the kernel pops with ``heappop``,
so a test that watches the traffic swaps those two names in the modules
that bound them.
"""

import heapq
import sys


def head(kernel):
    """The entry that pops next, or ``None`` with the queue empty."""
    queue = kernel._queue
    return queue[0] if queue else None


def target(entry):
    """What an entry runs: the event it processes, or the function it calls."""
    return entry[4] if entry[3] is None else entry[3]


def watch(monkeypatch, kernel, on_push, on_pop):
    """Call ``on_push(entry)`` before each push onto ``kernel``'s queue and
    ``on_pop(entry)`` after each pop from it, until ``monkeypatch`` undoes.

    Every loaded ``repro`` module that imported ``heappush`` or ``heappop``
    gets a wrapper; heaps other than the kernel's pass straight through.
    """
    queue = kernel._queue

    def push(heap, entry):
        if heap is queue:
            on_push(entry)
        heapq.heappush(heap, entry)

    def pop(heap):
        entry = heapq.heappop(heap)
        if heap is queue:
            on_pop(entry)
        return entry

    for name, module in list(sys.modules.items()):
        if not name.startswith("repro."):
            continue
        if getattr(module, "heappush", None) is heapq.heappush:
            monkeypatch.setattr(module, "heappush", push)
        if getattr(module, "heappop", None) is heapq.heappop:
            monkeypatch.setattr(module, "heappop", pop)
