"""The discrete-event scheduler.

The kernel owns simulated time, a priority queue of triggered events, and a
seeded random-number generator.  Because event processing order is fully
determined by ``(time, priority, sequence)``, a run with a given seed is
bit-for-bit reproducible -- the property all tests and benchmarks rely on.

The queue is a plain list kept as a binary heap by :mod:`heapq`.  Each
entry is ``(when, priority, seq, fn, arg)``: ``fn(arg)`` is a scheduled
call, and ``fn is None`` marks an event (``arg``), whose callbacks run
when it pops.  Whoever schedules pushes the entry itself, so a scheduled
thing costs one C heap operation each way and no wrapper object.
"""

from __future__ import annotations

import gc
import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import ReproError, ScheduleError, SimulationError
from repro.sim.events import AllOf, Event, Interrupt, NORMAL, Timeout
from repro.sim.process import ProcGen, Process
from repro.sim.rng import SeededRng

class Kernel:
    """Event loop for a single simulation run.

    Parameters
    ----------
    seed:
        Seed for the simulation-wide RNG.  Two kernels with the same seed
        and the same program produce identical traces.
    strict:
        When True (the default), a process that dies with an exception other
        than :class:`Interrupt` while nothing is waiting on it escalates the
        exception out of :meth:`run` -- silent failures hide bugs.  Waited-on
        process failures are delivered to the waiter instead.
    """

    def __init__(self, seed: int = 0, strict: bool = True) -> None:
        self.now: float = 0.0
        self.rng = SeededRng(seed)
        self.strict = strict
        #: The event queue: a heap of ``(when, priority, seq, fn, arg)``.
        self._queue: List[Tuple[float, int, int, Any, Any]] = []
        self._seq = 0
        self._event_count = 0
        # RPC request-id source, per kernel so that back-to-back
        # simulations in one process are bit-for-bit identical (a
        # module-level counter would leak ids across clusters).
        self._req_ids = itertools.count(1)
        #: Unhandled process failures observed so far (for post-mortems).
        self.dead_processes: List[Tuple[Process, BaseException]] = []

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcGen, name: Any = None) -> Process:
        """Start a new process running ``generator``.

        ``name`` may be a string or a tuple of parts joined lazily on first
        read (see :class:`~repro.sim.process.Process`).
        """
        return Process(self, generator, name=name)

    def next_req_id(self) -> int:
        """A kernel-unique RPC request id (all nodes share the sequence)."""
        return next(self._req_ids)

    def all_of(self, events) -> AllOf:
        """Composite event that fires when every child has fired."""
        return AllOf(self, events)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def call_later(self, delay: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` after ``delay`` seconds, NORMAL priority.

        Schedule-equivalent to ``self.timeout(delay)`` with one callback
        attached (same sequence number, priority, and firing time) but
        without allocating the event machinery.  Fire-and-forget only:
        there is no handle to wait on or cancel.
        """
        self.call_at(self.now + delay, fn, arg)

    def call_at(self, when: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Schedule ``fn(arg)`` at the absolute instant ``when``.

        :meth:`call_later` for a caller that already holds the firing time
        -- a re-armed deadline fires at the exact float first computed for
        it, not at ``now + (when - now)``.
        """
        if when < self.now:
            raise ScheduleError(f"call_at({when}) is in the past (now={self.now})")
        self._seq = seq = self._seq + 1
        heappush(self._queue, (when, NORMAL, seq, fn, arg))

    def _note_process_failure(self, process: Process, exc: BaseException) -> None:
        if not isinstance(exc, Interrupt):
            self.dead_processes.append((process, exc))

    def raise_for_bugs(self, since: int = 0) -> None:
        """Raise :class:`SimulationError` if a process recorded in
        :attr:`dead_processes` from index ``since`` on died of anything but
        a :class:`ReproError`: a bug in the code it ran, which a
        ``defuse()`` would otherwise turn into a quietly shorter run."""
        for process, exc in self.dead_processes[since:]:
            if not isinstance(exc, ReproError):
                raise SimulationError(
                    f"process {process.name!r} died of {exc!r}"
                ) from exc

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    @property
    def event_count(self) -> int:
        """Number of events processed so far (a cheap progress measure)."""
        return self._event_count

    def step(self) -> None:
        """Process exactly one event.

        Must stay in lockstep with the inlined dispatch in :meth:`run` --
        any semantic change here needs the same change there.
        """
        if not self._queue:
            raise ScheduleError("step() on an empty event queue")
        when, _priority, _seq, fn, event = heappop(self._queue)
        if when < self.now:
            raise SimulationError(f"time went backwards: {when} < {self.now}")
        self.now = when
        if fn is not None:
            fn(event)
            self._event_count += 1
            return
        callbacks, event.callbacks = event.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(event)
        self._event_count += 1
        if (
            self.strict
            and not event._ok
            and isinstance(event, Process)
            and not event._defused
            and not isinstance(event.value, Interrupt)
        ):
            raise SimulationError(
                f"process {event.name!r} died unhandled at t={self.now:.6f}"
            ) from event.value

    def run(self, until: Optional[float] = None) -> None:
        """Run until the queue drains or simulated time reaches ``until``.

        The dispatch below is :meth:`step` inlined (minus the redundant
        time-went-backwards check, which cannot trip when this loop is the
        only thing advancing the clock): one bound-method call and one
        attribute walk per event add up over a million-event run.

        The automatic cyclic collector is paused for the loop and the
        caller's setting restored on the way out, raising or not.  The
        simulator makes no reference cycles on its hot path (a process
        drops its trampoline when it ends), so reference counting frees
        what the loop discards at once, and a collection here would only
        re-scan the live simulated state -- a cost that grows with the
        heap, not with the work.  What the loop did allocate is examined
        by the first young collection after it returns.
        """
        if until is not None and until < self.now:
            raise ScheduleError(f"run(until={until}) is in the past (now={self.now})")
        queue = self._queue
        strict = self.strict
        horizon = float("inf") if until is None else until
        count = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            while queue:
                entry = heappop(queue)
                when = entry[0]
                if when > horizon:
                    # Past the horizon: put the entry back (identical tuple,
                    # so ordering is untouched) instead of peeking every loop.
                    heappush(queue, entry)
                    break
                self.now = when
                count += 1
                fn = entry[3]
                if fn is not None:
                    fn(entry[4])
                    continue
                event = entry[4]
                callbacks, event.callbacks = event.callbacks, None
                if callbacks:
                    for callback in callbacks:
                        callback(event)
                if (
                    strict
                    and not event._ok
                    and isinstance(event, Process)
                    and not event._defused
                    and not isinstance(event.value, Interrupt)
                ):
                    raise SimulationError(
                        f"process {event.name!r} died unhandled at t={self.now:.6f}"
                    ) from event.value
        finally:
            self._event_count += count
            if collecting:
                gc.enable()
        if until is not None and self.now < until:
            self.now = until

    def run_until_complete(self, process: Process) -> Any:
        """Run until ``process`` finishes, returning its value."""
        process.defuse()  # the caller is the waiter; don't escalate in step()
        while not process.triggered:
            if not self._queue:
                raise SimulationError(
                    f"deadlock: queue empty but {process.name!r} is not done"
                )
            self.step()
        if not process.ok:
            raise process.value
        return process.value
