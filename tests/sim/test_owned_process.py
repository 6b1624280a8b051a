"""The contract of a process a node owns (``Node.spawn`` / ``Node.fork``).

One class (:class:`repro.sim.process.OwnedProcess`) stands behind
``spawn``, ``fork`` and the RPC dispatch: in the node's table from before
its first step until its last, a successful end completed in place, a
failure queued.  ``spawn`` keeps its queued start; ``fork`` starts the
child inside the caller.
"""

import gc
import weakref

import pytest

from repro.errors import RpcTimeout, ScheduleError, SimulationError
from repro.sim import Interrupt, Kernel, Network, Node
from repro.sim.process import OwnedProcess
from repro.sim.resource import SimQueue


class Server(Node):
    def rpc_never(self, sender):
        yield self.kernel.timeout(3600.0)

    def rpc_echo(self, sender, value):
        yield self.kernel.timeout(0.001)
        return value


def make_node(seed=0, strict=True):
    k = Kernel(seed=seed, strict=strict)
    net = Network(k)
    return k, Node(k, net, "app"), Server(k, net, "server")


def drain(k):
    """Step-driven run: ``event_count`` is current inside every callback."""
    while k._queue:
        k.step()


# ----------------------------------------------------------------------
# where a process starts
# ----------------------------------------------------------------------
def test_fork_runs_the_first_step_inside_the_caller_and_in_the_table():
    k, app, _server = make_node()
    log = []

    def child():
        log.append(("child first step", len(app._procs)))
        yield k.timeout(1.0)
        log.append("child second step")

    proc = app.fork(child(), name="kid")
    log.append("forker goes on")
    assert log == [("child first step", 1), "forker goes on"]
    assert proc in app._procs and proc.is_alive
    assert proc.name == "app/kid"
    assert k.event_count == 0 and len(k._queue) == 1  # only the child's timeout
    k.run()
    assert log[-1] == "child second step"
    assert not app._procs and proc.ok


def test_spawn_never_starts_inside_the_caller():
    k, app, _server = make_node()
    log = []

    def child():
        log.append("child first step")
        yield k.timeout(1.0)

    proc = app.spawn(child(), name="kid")
    log.append("spawner goes on")
    assert log == ["spawner goes on"]
    assert proc in app._procs  # owned before its first step all the same
    k.step()  # the queued URGENT kick-off
    assert log == ["spawner goes on", "child first step"]
    assert k.now == 0.0


def test_spawn_rejects_a_non_generator_without_leaking_a_table_entry():
    k, app, _server = make_node()
    with pytest.raises(ScheduleError):
        app.spawn(lambda: None)
    with pytest.raises(ScheduleError):
        app.fork(42)
    assert not app._procs


def test_name_parts_are_formatted_only_when_read():
    k, app, _server = make_node()

    class Loud:
        def __str__(self):
            raise AssertionError("formatted on the hot path")

    def child():
        yield k.timeout(1.0)

    app.fork(child(), name=("flush:", Loud()))  # never read: never formatted
    proc = app.fork(child(), name=("flush:", 17, ":", "t,m"))
    assert proc.name == "app/flush:17:t,m"


# ----------------------------------------------------------------------
# where a process ends
# ----------------------------------------------------------------------
def test_waiter_on_a_child_that_already_ended_resumes_at_once():
    k, app, _server = make_node()
    seen = []

    def child():
        return "done"
        yield  # pragma: no cover - makes this a generator

    def parent():
        proc = app.fork(child())
        assert proc.processed and not proc.is_alive  # ended inside the fork
        before = k.event_count
        seen.append((yield proc))
        seen.append(k.event_count - before)

    k.run_until_complete(app.spawn(parent()))
    assert seen == ["done", 0]
    assert not app._procs


@pytest.mark.parametrize("start", ["fork", "spawn"])
def test_parked_waiter_resumes_inside_the_childs_last_step(start):
    k, app, _server = make_node()
    seen = {}

    def child():
        yield k.timeout(1.0)
        seen["child ends at"] = k.event_count
        return "value"

    def parent():
        proc = getattr(app, start)(child())
        value = yield proc
        seen["parent resumes at"] = k.event_count
        seen["value"] = value
        seen["child in table"] = proc in app._procs

    top = app.spawn(parent())
    drain(k)
    assert seen["value"] == "value"
    # Same kernel event: the end of the child is not an entry of its own.
    assert seen["parent resumes at"] == seen["child ends at"]
    assert seen["child in table"] is False
    # parent kick-off + the child's timeout (+ the child's kick-off if spawned)
    assert k.event_count == (2 if start == "fork" else 3)
    assert top.ok and not app._procs


def test_all_of_and_run_until_complete_over_owned_processes():
    k, app, _server = make_node()

    def child(delay, value):
        if delay:
            yield k.timeout(delay)
        return value

    def parent():
        kids = [app.fork(child(0, "a")), app.fork(child(2.0, "b")),
                app.spawn(child(1.0, "c")), app.spawn(child(0, "d"))]
        values = yield k.all_of(kids)
        return values, k.now

    assert k.run_until_complete(app.fork(parent())) == (["a", "b", "c", "d"], 2.0)
    assert k.run_until_complete(app.spawn(child(0.5, "e"))) == "e"
    assert k.run_until_complete(app.fork(child(0, "f"))) == "f"  # already over
    assert not app._procs


# ----------------------------------------------------------------------
# ownership
# ----------------------------------------------------------------------
def test_crash_interrupts_a_forked_child_parked_on_an_rpc():
    k, app, _server = make_node()
    seen = []

    def child():
        try:
            yield app.call("server", "never", timeout=10.0)
        except Interrupt as exc:
            seen.append(("interrupted", exc.cause, k.now))
            raise

    def parent():
        proc = app.fork(child())
        proc.defuse()
        try:
            yield proc
        except Interrupt:
            seen.append("parent too")
            raise

    top = app.spawn(parent())
    k.call_later(1.0, lambda _arg: app.crash())
    k.run()
    # crash() interrupts in table order: the parent joined first.
    assert seen == ["parent too", ("interrupted", "crash", 1.0)]
    assert not app._procs
    assert not top.ok and isinstance(top.value, Interrupt)
    assert k.dead_processes == []  # an interrupt is not a death to report


def test_crash_inside_a_forked_childs_first_step_still_reaches_it():
    k, app, _server = make_node()
    seen = []

    def child():
        app.crash()  # the table already holds this process
        try:
            yield k.timeout(1.0)
        except Interrupt:
            seen.append("interrupted")
            raise

    app.fork(child())
    k.run()
    assert seen == ["interrupted"] and not app._procs


def test_crash_before_a_spawned_childs_kick_off_skips_its_first_step():
    """A committer crashed in the instant it is spawned must not take its
    first step on the other side of the crash: here that step would
    swallow an item a live waiter enqueued after the revive."""
    k, app, _server = make_node()
    queue = SimQueue(k)
    steps = []

    def committer():
        steps.append("first step")
        steps.append((yield queue.get()))

    proc = app.spawn(committer())
    app.crash()
    app.revive()
    queue.put("record")
    k.run()
    assert steps == [] and len(queue) == 1
    assert not proc.ok and isinstance(proc.value, Interrupt)
    assert not app._procs and k.dead_processes == []


# ----------------------------------------------------------------------
# failures are still the kernel's to see
# ----------------------------------------------------------------------
def failing_child(app):
    yield app.call("server", "never", timeout=0.5)


def test_failing_forked_child_escalates_in_strict_mode():
    k, app, _server = make_node()
    proc = app.fork(failing_child(app), name="doomed")
    with pytest.raises(SimulationError, match="app/doomed"):
        k.run()
    assert [(p, type(e)) for p, e in k.dead_processes] == [(proc, RpcTimeout)]
    assert not app._procs


def test_defused_failing_forked_child_does_not_escalate():
    k, app, _server = make_node()
    proc = app.fork(failing_child(app))
    proc.defuse()
    k.run()
    assert not proc.ok and isinstance(proc.value, RpcTimeout)
    assert [p for p, _e in k.dead_processes] == [proc]


@pytest.mark.kills_process
def test_child_failing_in_its_first_step_can_be_defused_by_the_forker():
    """The failure is queued, not raised into ``fork()``: the forker gets
    the process back and its ``defuse()`` lands before the kernel looks."""
    k, app, _server = make_node()
    seen = []

    def child():
        raise ValueError("first step")
        yield  # pragma: no cover

    def parent():
        proc = app.fork(child())
        assert proc.triggered and not proc.processed  # failed, still queued
        proc.defuse()
        try:
            yield proc
        except ValueError as exc:
            seen.append(str(exc))

    k.run_until_complete(app.spawn(parent()))
    k.run()
    assert seen == ["first step"]

    # ...and without the defuse the same death is escalated.
    k2, app2, _ = make_node()
    app2.fork(child(), name="undefused")
    with pytest.raises(SimulationError, match="undefused"):
        k2.run()


def test_rpc_handlers_are_the_same_class():
    k, app, server = make_node()

    def nothing():
        return
        yield  # pragma: no cover

    def caller():
        event = app.call("server", "echo", timeout=5.0, value=7)
        yield k.timeout(0.0005)  # the request has landed, the handler is parked
        (handler,) = server._procs
        assert type(handler) is OwnedProcess
        assert handler.name == "server/rpc:echo"
        return (yield event)

    assert type(app.spawn(nothing())) is OwnedProcess
    assert k.run_until_complete(app.fork(caller())) == 7
    k.run()
    assert not server._procs and not app._procs


# ----------------------------------------------------------------------
# a finished process is freed by reference counting alone
# ----------------------------------------------------------------------
@pytest.fixture
def no_collector():
    """The cyclic collector off: only reference counting frees anything."""
    collecting = gc.isenabled()
    gc.disable()
    yield
    if collecting:
        gc.enable()


def ending(k, outcome):
    yield k.timeout(1.0)
    if outcome == "raise":
        raise ValueError("boom")
    return "done"


@pytest.mark.parametrize("start", ["spawn", "fork", "kernel.process"])
@pytest.mark.parametrize("outcome", ["return", "raise", "interrupt"])
def test_a_finished_process_is_freed_without_the_collector(no_collector, start, outcome):
    k, app, _server = make_node(strict=False)
    if start == "kernel.process":
        proc = k.process(ending(k, outcome))
    else:
        proc = getattr(app, start)(ending(k, outcome))
    if outcome == "interrupt":
        k.run(until=0.5)
        proc.interrupt("crash")
    k.run()
    assert not proc.is_alive and proc.ok == (outcome == "return")
    k.dead_processes.clear()  # the post-mortem list keeps a failed process
    gone = weakref.ref(proc)
    del proc
    assert gone() is None


@pytest.mark.parametrize("method", ["echo", "never"])
def test_a_finished_rpc_handler_is_freed_without_the_collector(no_collector, method):
    """``echo`` replies; ``never`` is still parked when its server crashes."""
    k, app, server = make_node()
    handlers = []

    def caller():
        payload = {"value": 7} if method == "echo" else {}
        event = app.call("server", method, timeout=1.0, **payload)
        yield k.timeout(0.0005)  # the request has landed, the handler is parked
        handlers.extend(weakref.ref(p) for p in server._procs)
        try:
            return (yield event)
        except RpcTimeout:
            return "timed out"

    k.call_later(0.5, lambda _arg: server.crash() if method == "never" else None)
    expected = 7 if method == "echo" else "timed out"
    assert k.run_until_complete(app.fork(caller())) == expected
    k.run()
    assert len(handlers) == 1 and handlers[0]() is None
