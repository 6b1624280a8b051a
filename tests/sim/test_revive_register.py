"""Crash/revive semantics and address (re-)registration on the fabric."""

import pytest

from repro.errors import NodeDown, RpcTimeout, SimulationError
from repro.sim import Kernel, Network, Node


class EchoNode(Node):
    def rpc_echo(self, sender, text):
        return f"{text} from {sender}"


def make_pair(seed=0):
    k = Kernel(seed=seed)
    net = Network(k)
    a = EchoNode(k, net, "a")
    b = EchoNode(k, net, "b")
    return k, net, a, b


def run_call(k, caller, *args, **kwargs):
    result = {}

    def proc():
        try:
            result["value"] = yield caller.call(*args, **kwargs)
        except Exception as exc:
            result["error"] = exc

    k.process(proc())
    k.run()
    return result


def test_crash_during_flight_drops_request_and_times_out_caller():
    k, net, a, b = make_pair()
    result = {}

    def proc():
        ev = a.call("b", "echo", timeout=0.5, text="x")
        b.crash()  # request already in flight; dies before delivery
        try:
            result["value"] = yield ev
        except Exception as exc:
            result["error"] = exc

    k.process(proc())
    k.run()
    assert isinstance(result["error"], RpcTimeout)
    assert net.messages_dropped == 1  # delivery-time reachability check
    assert k.now >= 0.5


def test_call_from_dead_node_fails_fast():
    k, _net, a, _b = make_pair()
    a.crash()
    result = run_call(k, a, "b", "echo", timeout=1.0, text="x")
    assert isinstance(result["error"], NodeDown)


def test_send_to_dead_node_is_counted_dropped():
    k, net, a, b = make_pair()
    b.crash()
    a.cast("b", "echo", text="x")
    k.run()
    assert net.messages_dropped == 1


def test_revive_restores_service():
    k, net, a, b = make_pair()
    b.crash()
    assert not b.alive
    b.revive()
    assert b.alive
    assert net.node("b") is b
    result = run_call(k, a, "b", "echo", timeout=1.0, text="hi")
    assert result["value"] == "hi from a"


def test_double_revive_is_a_noop():
    _k, net, _a, b = make_pair()
    b.crash()
    b.revive()
    b.revive()
    assert b.alive and net.node("b") is b


def test_revive_while_alive_is_a_noop():
    _k, net, _a, b = make_pair()
    b.revive()
    assert b.alive and net.node("b") is b


def test_reregistration_conflicts_only_with_a_live_incumbent():
    k = Kernel()
    net = Network(k)
    b1 = EchoNode(k, net, "b")
    b2 = EchoNode(k, net, "b")  # Node.__init__ registers with replace=True
    assert net.node("b") is b2
    with pytest.raises(SimulationError):
        net.register(b1)  # b2 is alive: explicit re-register must refuse
    b2.crash()
    net.register(b1)  # dead incumbent: the address is free to reuse
    assert net.node("b") is b1


def test_crash_clears_duplicate_suppression_state():
    # Volatile transport state does not survive a crash: a request whose
    # fabric duplicate lands after the node crashed and came back executes
    # again (fresh incarnation) instead of being suppressed.
    k, net, a, b = make_pair()
    net.duplicate_probability = 1.0  # every message is delivered twice
    hits = []

    def rpc_mark(sender):
        hits.append(k.now)
        if len(hits) == 1:  # between the two copies' landings
            k.call_later(0.0, lambda _arg: (b.crash(), b.revive()))
        return "ok"

    b.rpc_mark = rpc_mark
    assert run_call(k, a, "b", "mark", timeout=1.0) == {"value": "ok"}
    assert len(hits) == 2 and hits[0] < hits[1]  # once per incarnation
    assert net.messages_duplicated >= 1
    assert net.duplicates_suppressed == 0
