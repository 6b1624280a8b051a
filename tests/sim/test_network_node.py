"""Unit tests for the network fabric and the Node RPC layer."""

import pytest

from repro.errors import NodeDown, RemoteError, RpcTimeout, ScheduleError, SimulationError
from repro.sim import Interrupt, Kernel, LatencyModel, Network, Node


class Fatal(BaseException):
    """Neither an :class:`Exception` nor an :class:`Interrupt`."""


class EchoNode(Node):
    """Test node with a few representative handler shapes."""

    def rpc_echo(self, sender, text):
        return f"{text} from {sender}"

    def rpc_slow_echo(self, sender, text, delay):
        yield self.kernel.timeout(delay)
        return text

    def rpc_boom(self, sender):
        raise ValueError("kapow")

    def rpc_slow_boom(self, sender):
        yield self.kernel.timeout(0.1)
        raise ValueError("delayed kapow")

    def rpc_instant(self, sender):
        return "no wait"
        yield  # a generator handler that never suspends

    def rpc_instant_boom(self, sender):
        raise ValueError("kapow at once")
        yield

    def rpc_fatal(self, sender):
        yield self.kernel.timeout(0.1)
        raise Fatal("beyond repair")

    def rpc_stubborn(self, sender):
        try:
            yield self.kernel.timeout(0.5)
        except Interrupt:
            self.swallowed = self.kernel.now
        return "answered after the crash"


def make_pair(strict=True):
    k = Kernel(strict=strict)
    net = Network(k)
    a = EchoNode(k, net, "a")
    b = EchoNode(k, net, "b")
    return k, net, a, b


def run_call(k, caller, *args, **kwargs):
    result = {}

    def proc(k):
        try:
            result["value"] = yield caller.call(*args, **kwargs)
        except Exception as exc:
            result["error"] = exc

    k.process(proc(k))
    k.run()
    return result


def test_basic_request_response():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "echo", text="hi")
    assert result["value"] == "hi from a"


def test_generator_handler():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "slow_echo", text="later", delay=2.0)
    assert result["value"] == "later"
    assert k.now >= 2.0


def test_sync_handler_exception_becomes_remote_error():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "boom")
    assert isinstance(result["error"], RemoteError)
    assert "kapow" in str(result["error"])


def test_generator_handler_exception_becomes_remote_error():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "slow_boom")
    assert isinstance(result["error"], RemoteError)


def test_unknown_method_is_remote_error():
    k, _net, a, _b = make_pair()
    result = run_call(k, a, "b", "nope")
    assert isinstance(result["error"], RemoteError)
    assert "no such method" in str(result["error"])


def test_call_to_dead_node_times_out():
    k, _net, a, b = make_pair()
    b.crash()
    result = run_call(k, a, "b", "echo", timeout=1.0, text="hi")
    assert isinstance(result["error"], RpcTimeout)


def test_call_from_dead_node_fails_fast():
    k, _net, a, _b = make_pair()
    a.crash()
    result = run_call(k, a, "b", "echo", text="hi")
    assert isinstance(result["error"], NodeDown)


def test_partition_drops_messages_then_heals():
    k, net, a, _b = make_pair()
    net.partition(["a"], ["b"])
    result = run_call(k, a, "b", "echo", timeout=0.5, text="hi")
    assert isinstance(result["error"], RpcTimeout)

    net.heal()
    result = run_call(k, a, "b", "echo", timeout=0.5, text="hi")
    assert result["value"] == "hi from a"


def test_crash_mid_handler_means_no_reply():
    k, _net, a, b = make_pair()

    def killer(k, b):
        yield k.timeout(0.05)
        b.crash()

    k.process(killer(k, b))
    result = run_call(k, a, "b", "slow_echo", timeout=1.0, text="x", delay=0.5)
    assert isinstance(result["error"], RpcTimeout)


def test_crash_interrupts_spawned_processes():
    k, _net, a, _b = make_pair()
    trace = []

    def loop(node):
        while True:
            yield node.sleep(1.0)
            trace.append(node.kernel.now)

    a.spawn(loop(a))

    def killer(k, a):
        yield k.timeout(3.5)
        a.crash()

    k.process(killer(k, a))
    k.run()
    assert trace == [1.0, 2.0, 3.0]


@pytest.mark.kills_process
def test_handler_dying_of_a_base_exception_sends_no_reply_and_escalates():
    """Only an Exception becomes a RemoteError and only an Interrupt ends a
    handler quietly: anything else kills its process, unanswered."""
    k, net, a, _b = make_pair()
    event = a.call("b", "fatal", timeout=1.0)
    with pytest.raises(SimulationError, match="b/rpc:fatal") as info:
        k.run()
    assert isinstance(info.value.__cause__, Fatal)
    assert net.messages_sent == 1 and not event.triggered  # the request alone

    k, net, a, _b = make_pair(strict=False)
    result = run_call(k, a, "b", "fatal", timeout=1.0)
    assert isinstance(result["error"], RpcTimeout)
    assert net.messages_sent == 1
    ((process, exc),) = k.dead_processes
    assert process.name == "b/rpc:fatal" and isinstance(exc, Fatal)


def test_handler_that_swallows_the_crash_interrupt_sends_no_reply():
    k, net, a, b = make_pair()

    def killer(k, b):
        yield k.timeout(0.05)
        b.crash()

    k.process(killer(k, b))
    result = run_call(k, a, "b", "stubborn", timeout=1.0)
    assert b.swallowed == 0.05  # the handler returned at the crash
    assert isinstance(result["error"], RpcTimeout)
    assert net.messages_sent == 1 and not b._procs


def test_no_negative_delay_reaches_the_kernel_queue():
    """Sends and calls push their entries unchecked by the kernel, so what
    could schedule into the past is refused where it is set."""
    with pytest.raises(ValueError):
        LatencyModel(jitter_fraction=1.5)
    k, _net, a, _b = make_pair()
    with pytest.raises(ScheduleError):
        a.call("b", "echo", timeout=-1.0, text="x")


def test_cast_is_fire_and_forget():
    k, _net, a, b = make_pair()
    received = []

    def handler(sender, text):
        received.append((sender, text))

    b.rpc_note = handler  # type: ignore[attr-defined]
    a.cast("b", "note", text="hello")
    k.run()
    assert received == [("a", "hello")]


def test_late_reply_after_timeout_is_dropped():
    k, _net, a, _b = make_pair()
    # Timeout shorter than the handler delay: the reply arrives after the
    # caller gave up and must be discarded silently.
    result = run_call(k, a, "b", "slow_echo", timeout=0.1, text="x", delay=1.0)
    assert isinstance(result["error"], RpcTimeout)
    k.run()  # drain the late reply; must not blow up


def test_message_counters():
    k, net, a, _b = make_pair()
    run_call(k, a, "b", "echo", text="hi")
    assert net.messages_sent == 2  # request + response
    assert net.messages_dropped == 0


def test_reregistering_live_address_requires_replace():
    k = Kernel()
    net = Network(k)
    Node(k, net, "x")
    # Node.__init__ registers with replace=True, so constructing a second
    # node at the same address silently replaces -- the restart path.
    n2 = Node(k, net, "x")
    assert net.node("x") is n2


@pytest.mark.parametrize("method, kwargs, outcome", [
    ("instant", {}, "no wait"),
    ("instant_boom", {}, RemoteError),
    ("slow_boom", {}, RemoteError),
    ("slow_echo", {"text": "x", "delay": 0.2}, "x"),
])
def test_finished_handler_leaves_nothing_behind(method, kwargs, outcome):
    """However a generator handler ends, it leaves the node's process
    table, and the answered call leaves no pending entry or deadline."""
    k, _net, a, b = make_pair()
    result = run_call(k, a, "b", method, timeout=1.0, **kwargs)
    if isinstance(outcome, str):
        assert result["value"] == outcome
    else:
        assert isinstance(result["error"], outcome)
    assert not b._procs
    assert not a._pending_calls and a._deadlines == []


def test_handler_interrupted_by_crash_leaves_nothing_behind():
    k, _net, a, b = make_pair()
    event = a.call("b", "slow_echo", text="x", delay=0.5)
    k.run(until=0.05)
    assert len(b._procs) == 1  # the handler, mid-wait
    b.crash()
    k.run()
    assert not b._procs and not event.triggered
    assert not b._pending_calls and b._deadlines == []


def test_handler_starts_inside_the_delivery_and_is_crashable_at_once():
    """A handler's first step runs in the delivery of its request, already
    registered with the node: a crash in that very step interrupts it."""
    k, _net, a, b = make_pair()
    steps = []

    def rpc_self_destruct(sender):
        steps.append(("started", len(b._procs)))
        b.crash()
        yield k.timeout(0.1)
        steps.append("survived the crash")

    b.rpc_self_destruct = rpc_self_destruct
    result = run_call(k, a, "b", "self_destruct", timeout=1.0)
    assert steps == [("started", 1)]
    assert isinstance(result["error"], RpcTimeout)
    assert not b._procs
