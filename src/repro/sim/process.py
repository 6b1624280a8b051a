"""Generator-based processes for the discrete-event kernel.

A process wraps a Python generator.  The generator yields :class:`Event`
objects; the process suspends until the yielded event triggers, then resumes
with the event's value (or has the event's exception thrown into it).  The
process object is itself an event that triggers when the generator returns
(success, with the generator's return value) or raises (failure).
"""

from __future__ import annotations

import typing
from heapq import heappush
from inspect import GEN_CREATED, getgeneratorstate
from types import GeneratorType
from typing import Any, Generator, Optional

from repro.errors import ScheduleError
from repro.sim.events import Event, Interrupt, PENDING, URGENT

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel
    from repro.sim.network import Message
    from repro.sim.node import Node

ProcGen = Generator[Event, Any, Any]


class Process(Event):
    """A running generator, resumable on events, interruptible."""

    # ``__weakref__``: that a finished process is freed at once is part of
    # its contract, and a weak reference is how a test watches it go.
    __slots__ = ("_generator", "_target", "_name", "_resume", "__weakref__")

    def __init__(
        self, kernel: "Kernel", generator: ProcGen, name: Any = None
    ) -> None:
        if not isinstance(generator, GeneratorType):
            raise ScheduleError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        # Event.__init__ inlined: built and started in this one frame.
        self.kernel = kernel
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._target: Optional[Event] = None
        # ``name`` may be a tuple of parts (strings, timestamps, ...),
        # formatted and joined lazily by the ``name`` property: processes
        # are spawned on the RPC hot path and most names are only ever
        # read in error messages and repr.
        self._name = name if name is not None else generator.__name__
        # One bound method reused for every wait: the resume trampoline is
        # registered as a callback tens of thousands of times per run, and
        # each implicit ``self._resume`` lookup would mint a fresh bound
        # method object.  The bound method refers back to the process, so
        # ``_do_resume`` drops it when the generator ends: a finished
        # process is then freed by reference counting alone, never left
        # for the cyclic collector (docs/SIMULATION.md, "Where host time
        # goes: the collector").
        self._resume = resume = self._do_resume
        # Kick the generator off from the kernel loop, never synchronously
        # inside the caller: a scheduled call of the trampoline with no
        # event, at URGENT priority.
        kernel._seq = seq = kernel._seq + 1
        heappush(kernel._queue, (kernel.now, URGENT, seq, resume, None))

    def _exit(self, ok: bool, value: Any) -> None:
        """The generator returned or raised: trigger the process's own event."""
        if ok:
            self.succeed(value)
        else:
            self.fail(value)
            self.kernel._note_process_failure(self, value)

    @property
    def name(self) -> str:
        """Process name (joins lazily when spawned with name parts)."""
        n = self._name
        if type(n) is tuple:
            n = self._name = "".join(map(str, n))
        return n

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting on, if any."""
        return self._target

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its wait point.

        Interrupting a finished process is a no-op, which makes shutdown
        paths (e.g. crashing a node whose workers are mid-exit) simple.
        """
        if self.triggered:
            return
        # Detach from whatever the process was waiting on; the wait event may
        # still trigger later, but it must not resume us twice.
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:
                pass
        wakeup = Event(self.kernel)
        wakeup.callbacks.append(self._resume)
        wakeup.fail(Interrupt(cause), priority=URGENT)
        # A process whose queued kick-off is still ahead of the wakeup is
        # parked on the wakeup instead: the kick-off then finds it waiting
        # and passes, so the interrupt ends it before any first step.
        if getgeneratorstate(self._generator) == GEN_CREATED:
            self._target = wakeup
        else:
            self._target = None

    def _do_resume(self, event: Optional[Event]) -> None:
        """Advance the generator with the outcome of ``event``."""
        if self._value is not PENDING:
            # A stray wakeup after termination: an interrupt can land while
            # the process had already advanced onto a new wait target whose
            # event then fires too.  The interrupt consumed the process;
            # drop the late resume.
            if event is not None and not event._ok:
                event._defused = True
            return
        if event is None and self._target is not None:
            return  # the kick-off of a process interrupted before it ran
        self._target = None
        generator = self._generator
        send = generator.send
        while True:
            try:
                if event is None:
                    nxt = send(None)
                elif event._ok:
                    nxt = send(event._value)
                else:
                    event._defused = True
                    nxt = generator.throw(event._value)
            except StopIteration as stop:
                self._resume = None
                self._exit(True, stop.value)
                return
            except BaseException as exc:  # generator died
                # The traceback's head is this frame, whose locals hold the
                # process the exception is about to be stored on: start it
                # at the generator's frame instead, so no cycle forms.
                exc.__traceback__ = exc.__traceback__.tb_next
                self._resume = None
                self._exit(False, exc)
                return

            try:
                callbacks = nxt.callbacks
            except AttributeError:
                self._resume = None
                self._exit(False, ScheduleError(
                    f"process {self.name!r} yielded non-event {nxt!r}"
                ))
                return

            if callbacks is None:
                # Already processed: resume immediately with its outcome.
                event = nxt
                continue
            callbacks.append(self._resume)
            self._target = nxt
            return

    def __repr__(self) -> str:
        state = "alive" if self.is_alive else ("done" if self.ok else "failed")
        return f"<Process {self.name} {state}>"


class OwnedProcess(Process):
    """A process a node owns: in its table while it runs, ended in place.

    The one class behind :meth:`Node.spawn`, :meth:`Node.fork` and the RPC
    dispatch.  It joins the node's process table *before* its first step,
    so a crash during that step still interrupts it, and leaves the table
    where its last step runs.  A successful return completes the process
    there too (:meth:`Event._complete`): whoever waits on it resumes
    inside the child's last step, the same instant of the same causal
    chain, so the end costs no kernel event.  A failure is still queued,
    so that a forker can ``defuse()`` it before the kernel sees it and
    strict-mode escalation and ``dead_processes`` work as for any
    :class:`Process`.

    ``in_caller`` picks the start: True runs the generator up to its
    first wait inside the constructor (a fork or an RPC delivery and the
    child's first step are one instant of one chain); False keeps the
    queued URGENT kick-off of :class:`Process`.

    ``request`` makes it an RPC handler whose end is the reply: a return
    value is sent back, an :class:`Exception` as its ``repr``, and an
    :class:`Interrupt` (a crash) sends nothing; all three end it in place.
    Any other exception sends nothing and fails the process.
    """

    __slots__ = ("_node", "_request")

    def __init__(
        self, node: "Node", generator: ProcGen, name: Any, in_caller: bool,
        request: Optional["Message"] = None,
    ) -> None:
        if not isinstance(generator, GeneratorType):
            raise ScheduleError(
                f"Process requires a generator, got {type(generator).__name__}"
            )
        # Process.__init__ inlined (see there), for the same one frame.
        self.kernel = kernel = node.kernel
        self.callbacks = []
        self._value = PENDING
        self._ok = True
        self._defused = False
        self._generator = generator
        self._target = None
        self._name = name
        self._resume = resume = self._do_resume
        self._node = node
        self._request = request
        node._procs[self] = None
        if in_caller:
            resume(None)
        else:
            kernel._seq = seq = kernel._seq + 1
            heappush(kernel._queue, (kernel.now, URGENT, seq, resume, None))

    def _exit(self, ok: bool, value: Any) -> None:
        node = self._node
        node._procs.pop(self, None)
        request = self._request
        if request is not None:
            if ok:
                node._reply(request, value)
            elif isinstance(value, Exception):
                node._reply_error(request, repr(value))
                ok, value = True, None
            elif isinstance(value, Interrupt):
                ok, value = True, None
        if ok:
            self._complete(True, value)
        else:
            super()._exit(False, value)
