"""Core event primitives for the discrete-event kernel.

The design follows the classic SimPy model: an :class:`Event` is a one-shot
box that is eventually *triggered* (succeeded or failed); callbacks attached
to it run when the kernel processes it.  Generator-based processes
(:mod:`repro.sim.process`) yield events to suspend until they trigger.
"""

from __future__ import annotations

import typing
from typing import Any, Callable, Iterable, List, Optional

from repro.errors import ScheduleError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel

#: Sentinel for "this event has not been triggered yet".
PENDING = object()

#: Scheduling priority for interrupts and other must-run-first events.
URGENT = 0
#: Default scheduling priority.
NORMAL = 1


class _Callback:
    """A pre-bound function call scheduled directly on the kernel queue.

    The hot paths (network delivery, RPC deadlines, process kick-off)
    schedule tens of thousands of one-shot timers whose only job is to
    invoke one function with one argument.  Routing those through
    :class:`Timeout`/:class:`Event` allocates two objects and walks the
    callbacks machinery per timer; a ``_Callback`` record is popped and
    invoked directly.  It consumes a sequence number exactly like the
    event it replaces, so schedules stay bit-for-bit identical.
    """

    __slots__ = ("fn", "arg")

    def __init__(self, fn: Callable[[Any], None], arg: Any) -> None:
        self.fn = fn
        self.arg = arg


class Interrupt(BaseException):
    """Raised inside a process when another process interrupts it.

    The ``cause`` is whatever the interrupter supplied -- conventionally a
    short string such as ``"crash"``.

    Deliberately *not* an :class:`Exception`: retry loops and best-effort
    handlers legitimately write ``except Exception`` around I/O, and a node
    crash must cut through those, not be swallowed as one more transient
    error.
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence in simulated time.

    Lifecycle: *pending* -> *triggered* (value or exception set, queued in the
    kernel) -> *processed* (callbacks executed).  Events may only be
    triggered once.  The simulator's own same-instant hand-offs skip the
    queue (see :meth:`_complete`).
    """

    __slots__ = ("kernel", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, kernel: "Kernel") -> None:
        self.kernel = kernel
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: bool = True
        self._defused: bool = False

    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once the kernel has run this event's callbacks."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception of the event."""
        if self._value is PENDING:
            raise ScheduleError(f"{self!r} has not been triggered yet")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or None if the event succeeded."""
        if not self.triggered or self._ok:
            return None
        return self._value

    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise ScheduleError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        # kernel._enqueue(self, priority), inlined: this is the single
        # hottest trigger path in the simulator.
        kernel = self.kernel
        kernel._seq = seq = kernel._seq + 1
        kernel._queue.push((kernel.now, priority, seq, self))
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with a failure exception."""
        if self._value is not PENDING:
            raise ScheduleError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        kernel = self.kernel
        kernel._seq = seq = kernel._seq + 1
        kernel._queue.push((kernel.now, priority, seq, self))
        return self

    def _complete(self, ok: bool, value: Any) -> None:
        """Trigger *and* process the event now, inside the caller.

        For a same-instant hand-off within one causal chain (an RPC reply
        reaching its caller, a slot's grant to a free or timed request, an
        item put to a parked getter, a node's process returning): the
        waiters run here rather than after a
        zero-delay trip through the kernel queue, so no kernel event is
        spent where no simulated time passes.  The event must be pending.
        """
        self._ok = ok
        self._value = value
        callbacks, self.callbacks = self.callbacks, None
        for callback in callbacks:
            callback(self)

    def defuse(self) -> None:
        """Mark a failure as handled so the kernel does not escalate it."""
        self._defused = True

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else f"failed({self._value!r})"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers ``delay`` simulated seconds after creation.

    The value stays pending until the kernel pops the event at its fire
    time -- ``triggered`` must not become true before the delay elapses,
    or composite conditions would see the future.
    """

    __slots__ = ("delay", "_delayed_value")

    def __init__(self, kernel: "Kernel", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ScheduleError(f"negative timeout delay {delay}")
        super().__init__(kernel)
        self.delay = delay
        self._delayed_value = value
        # kernel._enqueue(self, NORMAL, delay=delay), inlined (hot path).
        kernel._seq = seq = kernel._seq + 1
        kernel._queue.push((kernel.now + delay, NORMAL, seq, self))

    def _materialize(self) -> None:
        """Called by the kernel when the delay elapses."""
        if self._value is PENDING:
            self._ok = True
            self._value = self._delayed_value


class AllOf(Event):
    """Triggers when *all* children have triggered; value is their values.

    The first child to fail fails it with that child's exception.
    """

    __slots__ = ("events", "_n_triggered")

    def __init__(self, kernel: "Kernel", events: Iterable[Event]) -> None:
        super().__init__(kernel)
        self.events: List[Event] = list(events)
        self._n_triggered = 0
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event.triggered:
                self._on_child(event)
            else:
                event.callbacks.append(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            event.defuse()
            self.fail(event.value)
            return
        self._n_triggered += 1
        if self._n_triggered >= len(self.events):
            self.succeed([child.value for child in self.events])
