"""Capacity resources and FIFO stores for simulated contention.

:class:`Resource` models anything with bounded parallelism -- RPC worker
pools, a disk head, a mutex (capacity 1).  Requests beyond capacity queue in
FIFO order; this is what turns offered load into realistic saturation curves
in the benchmarks.

:class:`SimQueue` is an unbounded producer/consumer channel (SimPy's Store):
``put`` never blocks, ``get`` returns an event that fires when an item is
available.

Both hand over in place where the receiver's next step is part of the
giver's instant: a slot released to a waiter in ``use(duration > 0)``
starts that waiter's service timeout inside :meth:`Resource.release`, and
an item put to a parked getter resumes the getter inside
:meth:`SimQueue.put` -- no kernel event for either.  Every other grant,
and a ``get`` of an item already queued, is still a queued event
(docs/SIMULATION.md, "What stays queued on purpose").
"""

from __future__ import annotations

import typing
from collections import deque
from typing import Any, Deque, List

from repro.errors import ScheduleError
from repro.sim.events import Event

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel


class _ServiceGrant(Event):
    """The grant a ``use(duration > 0)`` waiter parks on.  Its only step
    once granted is to start its service timeout, so :meth:`Resource.release`
    completes it in place."""

    __slots__ = ()


class Resource:
    """A pool of ``capacity`` interchangeable slots with a FIFO wait queue."""

    def __init__(self, kernel: "Kernel", capacity: int = 1) -> None:
        if capacity < 1:
            raise ScheduleError(f"resource capacity must be >= 1, got {capacity}")
        self.kernel = kernel
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Event] = deque()
        # The grant for a slot that is free: already processed, so a
        # process yielding it resumes at once and no kernel event is spent
        # where nothing queues.  One shared instance -- it carries no state.
        self._granted = Event(kernel)
        self._granted._complete(True, self)

    @property
    def in_use(self) -> int:
        """Number of slots currently held."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Event:
        """Return an event that fires once a slot is granted to the caller.

        With a slot free it is taken here and now and the returned event is
        already processed; otherwise the request queues FIFO and its grant
        is a queued event, so the caller resumes after the releaser's step.
        The caller must eventually :meth:`release` the slot.  If the
        waiting process is interrupted it must call :meth:`cancel` with the
        pending event so the slot is not granted to a ghost.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
            return self._granted
        event = Event(self.kernel)
        self._waiters.append(event)
        return event

    def cancel(self, event: Event) -> None:
        """Withdraw a pending request (or release if it was granted)."""
        if event.triggered:
            # The grant raced ahead of the interrupt; give the slot back.
            if event.ok:
                self.release()
            return
        try:
            self._waiters.remove(event)
        except ValueError:
            pass

    def release(self) -> None:
        """Return a slot to the pool, handing it to the oldest waiter if any.

        A ``use(duration > 0)`` waiter is granted in place: it starts its
        service timeout here, at the release instant.  Any other grant is
        queued, so its waiter acts after the releaser's step.
        """
        if self._in_use <= 0:
            raise ScheduleError("release() without a matching request()")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:  # cancelled but not yet removed
                continue
            if type(waiter) is _ServiceGrant:
                waiter._complete(True, self)
            else:
                waiter.succeed(self)
            return
        self._in_use -= 1

    def use(self, duration: float):
        """Generator helper: hold one slot for ``duration`` simulated seconds.

        Usage inside a process: ``yield from resource.use(0.001)``.  A free
        slot is taken without suspending; otherwise the process queues
        FIFO, and with a service time to run it is granted in place by
        :meth:`release`.  Interrupt-safe: the slot (or pending request) is
        released on the way out even if the process is interrupted
        mid-wait.
        """
        if self._in_use < self.capacity:
            self._in_use += 1
        else:  # no slot free: wait in the queue
            grant = _ServiceGrant(self.kernel) if duration > 0 else Event(self.kernel)
            self._waiters.append(grant)
            try:
                yield grant
            except BaseException:
                self.cancel(grant)
                raise
        try:
            if duration > 0:
                yield self.kernel.timeout(duration)
        finally:
            self.release()


class SimQueue:
    """Unbounded FIFO channel between simulated processes."""

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Append ``item``, or hand it to the oldest parked getter in place.

        The getter resumes here, before ``put`` returns.
        """
        while self._getters:
            getter = self._getters.popleft()
            if getter.triggered or not getter.callbacks:
                # Cancelled getter, or one whose waiting process was
                # interrupted away (e.g. a group committer killed by a
                # node crash): interrupt() detaches the resume callback
                # but leaves the event pending, and handing the item to
                # it would silently lose the item.
                continue
            getter._complete(True, item)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Event that fires with the next item.

        An item already queued is still delivered through the kernel
        queue, after the caller's step.
        """
        event = Event(self.kernel)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def drain(self) -> List[Any]:
        """Remove and return all currently-queued items without waiting."""
        items = list(self._items)
        self._items.clear()
        return items
