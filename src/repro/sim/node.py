"""Node base class: process ownership, crash semantics, and RPC plumbing.

A node is one failure domain.  All of its background work runs in processes
spawned through :meth:`Node.spawn`; :meth:`Node.crash` interrupts every one
of them and drops the node off the network, which is exactly the paper's
failure model (crash failures; partitions are treated as crashes).

RPC convention: a handler for method ``foo`` is an instance method named
``rpc_foo(self, sender, **payload)``.  A handler may return a plain value
(replied immediately) or a generator (run as a process; the reply carries
its return value).  Exceptions raised by handlers travel back to the caller
as :class:`~repro.errors.RemoteError`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple, Type

from repro.errors import NodeDown, RemoteError, RpcTimeout
from repro.sim.events import Event, Interrupt
from repro.sim.kernel import Kernel
from repro.sim.network import Message, Network
from repro.sim.process import OwnedProcess, ProcGen, Process
from repro.sim.retry import DEFAULT_RPC_RETRY, RetryPolicy

_NEVER = float("inf")


class Node:
    """A simulated machine/process with an address on the network."""

    def __init__(self, kernel: Kernel, net: Network, addr: str) -> None:
        self.kernel = kernel
        self.net = net
        self.addr = addr
        self.alive = True
        # Insertion-ordered (dict keys): crash() interrupts processes in
        # spawn order, so the schedule never depends on object hashes.
        self._procs: Dict[Process, None] = {}
        self._pending_calls: Dict[int, Event] = {}
        # req_id -> per-item reply events of an outstanding call_batch().
        self._pending_batches: Dict[int, List[Event]] = {}
        # RPC deadlines, earliest first: (when, req_id, dst, method,
        # timeout).  One kernel timer is armed for the earliest (it fires
        # at ``_timer_at``); an answered call's entry is dropped lazily
        # when it surfaces, so a call that is answered costs no event.
        self._deadlines: List[Tuple[float, int, str, str, float]] = []
        self._timer_at = _NEVER
        # Transport-level at-most-once delivery: the fabric may duplicate
        # a message (chaos layer), but each request id executes a handler
        # at most once -- like TCP retransmission dedup.  Both copies of
        # a duplicated request share one Message: the first to run stamps
        # its ``twin`` with this incarnation, and the other is suppressed
        # if it lands in the same one.  crash() starts a new incarnation.
        # Application *retries* use fresh request ids and do reach handlers
        # again, which is why non-idempotent handlers (the TM's commit)
        # keep their own decision caches.
        self._incarnation = object()
        # method name -> bound rpc_* handler (or None), filled lazily so
        # the dispatch path skips the per-request getattr/format.
        self._rpc_handlers: Dict[str, Optional[Callable]] = {}
        #: Jitter source for this node's retry backoff (seeded substream:
        #: deterministic, and independent of every other node's draws).
        self.retry_rng = kernel.rng.substream(f"retry.{addr}")
        #: Storage-layer crash hooks, run at kill time before
        #: :meth:`on_crash`.  This is where buffered-but-unsynced data is
        #: deterministically discarded or torn: the storage layer decides
        #: what its media look like after the power cut, while
        #: :meth:`on_crash` clears purely volatile application state.
        self.crash_hooks: List[Callable[[], None]] = []
        net.register(self, replace=True)

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def spawn(self, generator: ProcGen, name: Any = None) -> Process:
        """Run ``generator`` as a process owned by (and dying with) this node.

        The process never starts inside the caller: its first step is a
        queued URGENT kick-off, so the spawner finishes its own step
        first.  ``name`` may be a string or a tuple of parts; either
        way the display name is only assembled if someone reads it
        (names exist for error messages and repr).
        """
        return OwnedProcess(
            self.kernel, generator, self._proc_name(name), self._procs, False
        )

    def fork(self, generator: ProcGen, name: Any = None) -> Process:
        """Run ``generator`` as an owned process, first step here in the caller.

        :meth:`spawn` for a child that is one branch of the caller's own
        causal chain -- a fan-out the caller is about to join: the
        hand-off is no place a queue can form, so it costs no kernel
        event.  The child may already have ended when this returns; a
        failure is queued like any other, so ``defuse()`` it right after
        the fork if the caller collects the outcome itself.
        """
        return OwnedProcess(
            self.kernel, generator, self._proc_name(name), self._procs, True
        )

    def _proc_name(self, name: Any) -> Tuple[Any, ...]:
        if name is None:
            return (self.addr, "/proc")
        if type(name) is tuple:
            return (self.addr, "/") + name
        return (self.addr, "/", name)

    def sleep(self, delay: float) -> Event:
        """Timeout event helper for use inside this node's processes."""
        return self.kernel.timeout(delay)

    # ------------------------------------------------------------------
    # failure model
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash-stop: kill every process, drop volatile state, go dark."""
        if not self.alive:
            return
        self.alive = False
        for process in list(self._procs):
            process.interrupt("crash")
        self._procs.clear()
        self._pending_calls.clear()
        self._pending_batches.clear()
        self._deadlines.clear()
        self._timer_at = _NEVER  # disowns a timer still in the kernel queue
        self._incarnation = object()  # a twin still in flight runs again
        for hook in list(self.crash_hooks):
            hook()
        self.on_crash()

    def on_crash(self) -> None:
        """Hook for subclasses to clear volatile state. Default: nothing."""

    def revive(self) -> None:
        """Bring a crashed node back up (same address, volatile state gone).

        The inverse of :meth:`crash` at the fabric level only: subclasses
        restart their own processes/sessions afterwards (a region server's
        :meth:`restart`, for example).  Durable state -- like a datanode's
        synced replicas -- was never lost.
        """
        if self.alive:
            return
        self.alive = True
        self.net.register(self, replace=True)
        self.on_revive()

    def on_revive(self) -> None:
        """Hook for subclasses on revival. Default: nothing."""

    # ------------------------------------------------------------------
    # RPC client side
    # ------------------------------------------------------------------
    def call(
        self,
        dst: str,
        method: str,
        timeout: Optional[float] = None,
        size: int = 256,
        **payload: Any,
    ) -> Event:
        """Send a request; the returned event fires with the reply value.

        Failure modes: :class:`RpcTimeout` if ``timeout`` elapses first,
        :class:`RemoteError` if the handler raised, :class:`NodeDown` if
        this node is itself dead.
        """
        result = Event(self.kernel)
        if not self.alive:
            result.fail(NodeDown(f"{self.addr} is down"))
            return result
        req_id = self.kernel.next_req_id()
        self._pending_calls[req_id] = result
        self.net.send(
            Message(self.addr, dst, "request", req_id, method, payload, size=size)
        )
        if timeout is not None:
            self._set_deadline(req_id, dst, method, timeout)
        return result

    def call_with_retry(
        self,
        dst: str,
        method: str,
        policy: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
        retry_on: Tuple[Type[BaseException], ...] = (RpcTimeout,),
        size: int = 256,
        **payload: Any,
    ):
        """Issue :meth:`call` with retry/backoff per ``policy``.

        (Generator API.)  Retries only the exception types in ``retry_on``
        -- by default just :class:`RpcTimeout`, since a timeout is the one
        failure a lossy fabric manufactures out of thin air, while a
        :class:`RemoteError` usually carries application meaning that a
        blind retry would mask.  Retrying a request whose *response* was
        lost re-executes the handler, so callers of non-idempotent methods
        rely on server-side dedup (e.g. the TM's commit decision cache).

        When the policy gives up, the last failure is re-raised.
        """
        policy = policy or DEFAULT_RPC_RETRY
        start = self.kernel.now
        attempt = 0
        while True:
            attempt += 1
            try:
                result = yield self.call(
                    dst, method, timeout=timeout, size=size, **payload
                )
                return result
            except retry_on:
                if policy.gives_up(attempt, self.kernel.now - start):
                    raise
                self.net.rpc_retries += 1
                yield self.sleep(policy.backoff(attempt, self.retry_rng))

    def call_batch(
        self,
        dst: str,
        method: str,
        items: List[Dict[str, Any]],
        timeout: Optional[float] = None,
        size: Optional[int] = None,
    ) -> List[Event]:
        """Send ``items`` as ONE wire message; one reply event per item.

        The batch travels as a single scheduled delivery (one network
        event instead of N) and the receiver answers with a single
        response carrying per-item outcomes, fanned back out to the
        returned events in order.

        Server side, the batch dispatches to ``rpc_{method}_batch(sender,
        items)`` when the node defines one (a *batch-aware* handler that
        can share work across items -- e.g. one disk sync for a group of
        log appends -- and returns a list of ``(ok, value_or_error)``
        pairs), falling back to invoking plain ``rpc_{method}`` once per
        item.  Item failures are isolated: each item's event fails with
        :class:`RemoteError` independently.

        ``size`` is the wire size of the whole batch (defaults to 256
        bytes per item).  On ``timeout``, every still-pending item event
        fails with :class:`RpcTimeout`.
        """
        events = [Event(self.kernel) for _ in items]
        if not items:
            return events
        if not self.alive:
            for event in events:
                event.fail(NodeDown(f"{self.addr} is down"))
            return events
        req_id = self.kernel.next_req_id()
        self._pending_batches[req_id] = events
        self.net.send(
            Message(
                self.addr, dst, "batch_request", req_id, method,
                {"items": items}, size=size if size is not None else 256 * len(items),
            )
        )
        if timeout is not None:
            self._set_deadline(req_id, dst, method, timeout)
        return events

    def cast(self, dst: str, method: str, size: int = 256, **payload: Any) -> None:
        """Fire-and-forget request (no reply correlation)."""
        if not self.alive:
            return
        self.net.send(Message(self.addr, dst, "request", 0, method, payload, size=size))

    def _set_deadline(self, req_id: int, dst: str, method: str, timeout: float) -> None:
        when = self.kernel.now + timeout
        heappush(self._deadlines, (when, req_id, dst, method, timeout))
        if when < self._timer_at:
            self._timer_at = when
            self.kernel.call_at(when, self._on_deadline, when)

    def _on_deadline(self, when: float) -> None:
        """Fail every call whose deadline is ``when``; re-arm for the next."""
        if when != self._timer_at:
            return  # superseded by an earlier deadline's timer, or a crash
        deadlines = self._deadlines
        calls, batches = self._pending_calls, self._pending_batches
        while deadlines:
            due, req_id, dst, method, timeout = deadlines[0]
            if due > when:
                if req_id in calls or req_id in batches:
                    break  # the earliest deadline still owed
                heappop(deadlines)  # answered since it was set
                continue
            heappop(deadlines)
            event = calls.pop(req_id, None)
            expired = batches.pop(req_id, ()) if event is None else (event,)
            for event in expired:
                if not event.triggered:
                    event.fail(RpcTimeout(dst, method, timeout))
        if deadlines:
            self._timer_at = due = deadlines[0][0]
            self.kernel.call_at(due, self._on_deadline, due)
        else:
            self._timer_at = _NEVER

    # ------------------------------------------------------------------
    # RPC server side
    # ------------------------------------------------------------------
    def _on_message(self, message: Message) -> None:
        if not self.alive:
            return
        if message.kind == "response":
            event = self._pending_calls.pop(message.req_id, None)
            if event is None or event.triggered:
                return  # late reply after timeout; drop
            # The reply's arrival and the caller's resumption are one
            # instant: run the waiter from here, not via the queue.
            if message.ok:
                value = message.payload.get("result")
            else:
                value = RemoteError(message.src, message.method, message.error or "?")
            event._complete(message.ok, value)
            return

        if message.kind == "batch_response":
            events = self._pending_batches.pop(message.req_id, None)
            if events is None:
                return  # late reply after timeout/crash; drop
            for event, outcome in zip(events, message.payload["results"]):
                if event.triggered:
                    continue  # this item already timed out
                ok, value = outcome
                if not ok:
                    value = RemoteError(message.src, message.method, value or "?")
                event._complete(ok, value)
            return

        if message.twin is not None and message.req_id:
            # A request the fabric delivers twice: the first copy to land
            # runs the handler, its twin is suppressed (at-most-once per
            # request id and incarnation).  The first copy's reply answers
            # the caller; if that reply is lost the caller retries with a
            # fresh id, reaching the handler again.
            if message.twin is self._incarnation:
                self.net.duplicates_suppressed += 1
                return
            message.twin = self._incarnation

        method = message.method
        handlers = self._rpc_handlers

        if message.kind == "batch_request":
            batch_key = method + "\x00batch"
            try:
                batch_handler = handlers[batch_key]
            except KeyError:
                batch_handler = handlers[batch_key] = getattr(
                    self, f"rpc_{method}_batch", None
                )
            item_handler = None
            if batch_handler is None:
                try:
                    item_handler = handlers[method]
                except KeyError:
                    item_handler = handlers[method] = getattr(
                        self, f"rpc_{method}", None
                    )
                if item_handler is None:
                    self._reply_batch(
                        message,
                        [(False, f"no such method {method!r}")]
                        * len(message.payload["items"]),
                    )
                    return
            self._start_handler(
                self._run_batch_handler(message, batch_handler, item_handler),
                message, "rpc-batch:",
            )
            return

        try:
            handler = handlers[method]
        except KeyError:
            handler = handlers[method] = getattr(self, f"rpc_{method}", None)
        if handler is None:
            self._reply_error(message, f"no such method {method!r}")
            return
        try:
            outcome = handler(message.src, **message.payload)
        except Interrupt:
            raise
        except Exception as exc:
            self._reply_error(message, repr(exc))
            return
        if hasattr(outcome, "send") and hasattr(outcome, "throw"):
            self._start_handler(self._run_handler(message, outcome), message, "rpc:")
        else:
            self._reply(message, outcome)

    def _start_handler(self, generator: ProcGen, message: Message, prefix: str) -> None:
        """Run a generator handler as a process of this node, starting now.

        A :meth:`fork`: the handler's first step runs here, inside the
        delivery of its request; nobody waits on a handler (its reply is
        a message), so its end is no kernel event either.
        """
        self.fork(generator, (prefix, message.method))

    def _run_handler(self, message: Message, generator: ProcGen) -> ProcGen:
        try:
            result = yield from generator
        except Interrupt:
            return  # node crashed mid-handler: no reply, caller times out
        except Exception as exc:
            self._reply_error(message, repr(exc))
            return
        self._reply(message, result)

    def _run_batch_handler(
        self,
        message: Message,
        batch_handler: Optional[Callable],
        item_handler: Optional[Callable],
    ) -> ProcGen:
        items = message.payload["items"]
        results: List[Tuple[bool, Any]] = []
        try:
            if batch_handler is not None:
                outcome = batch_handler(message.src, items)
                if hasattr(outcome, "send") and hasattr(outcome, "throw"):
                    outcome = yield from outcome
                results = list(outcome)
            else:
                for item in items:
                    try:
                        outcome = item_handler(message.src, **item)
                        if hasattr(outcome, "send") and hasattr(outcome, "throw"):
                            outcome = yield from outcome
                        results.append((True, outcome))
                    except Interrupt:
                        raise
                    except Exception as exc:
                        results.append((False, repr(exc)))
        except Interrupt:
            return  # node crashed mid-batch: no reply, caller times out
        except Exception as exc:
            # The batch handler itself blew up: every item fails alike.
            results = [(False, repr(exc))] * len(items)
        self._reply_batch(message, results)

    def _reply_batch(self, message: Message, results: List[Tuple[bool, Any]]) -> None:
        if message.req_id == 0 or not self.alive:
            return
        self.net.send(
            Message(
                self.addr, message.src, "batch_response", message.req_id,
                message.method, {"results": results},
                size=max(64 * len(results), 256),
            )
        )

    def _reply(self, message: Message, result: Any, size: int = 256) -> None:
        if message.req_id == 0 or not self.alive:
            return  # cast, or we died while computing
        self.net.send(
            Message(
                self.addr, message.src, "response", message.req_id,
                message.method, {"result": result}, size=size,
            )
        )

    def _reply_error(self, message: Message, description: str) -> None:
        if message.req_id == 0 or not self.alive:
            return
        self.net.send(
            Message(
                self.addr, message.src, "response", message.req_id,
                message.method, {}, ok=False, error=description,
            )
        )

    def __repr__(self) -> str:
        status = "up" if self.alive else "down"
        return f"<{type(self).__name__} {self.addr} {status}>"
