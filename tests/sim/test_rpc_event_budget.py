"""The RPC path's event budget and the semantics it must not trade away.

A round trip spends a kernel event only where simulated time passes: the
request's flight, the handler's service time, the reply's flight.  The
hand-offs between them (handler start, free worker slot, handler end,
reply reaching the caller) are function calls, and a deadline costs an
event only when it has to fire.
"""

from repro.errors import RemoteError, RpcTimeout
from repro.sim import Kernel, Network, Node, Resource

SERVICE_S = 0.001


class Server(Node):
    def __init__(self, kernel, net, addr):
        super().__init__(kernel, net, addr)
        self.cpu = Resource(kernel, capacity=4)
        self.executed = 0

    def rpc_work(self, sender):
        self.executed += 1
        yield from self.cpu.use(SERVICE_S)
        return self.executed

    def rpc_slow(self, sender, delay):
        yield self.kernel.timeout(delay)
        return "late"


def make_pair(seed=0):
    k = Kernel(seed=seed)
    net = Network(k)
    return k, net, Node(k, net, "client"), Server(k, net, "server")


def test_sequential_round_trips_cost_at_most_four_events_each():
    k, _net, client, server = make_pair()
    n = 500

    def caller():
        for _ in range(n):
            yield client.call("server", "work", timeout=5.0)

    proc = k.process(caller())
    before = k.event_count
    k.run_until_complete(proc)
    assert server.executed == n
    assert k.event_count - before <= 4 * n
    # Answered calls leave nothing behind in the kernel queue: one armed
    # deadline timer per node at most, not one entry per call.
    assert len(k._queue) <= 2


def test_unanswered_call_fails_at_exactly_its_deadline():
    k, _net, client, server = make_pair()
    server.crash()
    seen = {}

    def caller(name, start, timeout):
        yield k.timeout(start)
        t0 = k.now
        try:
            yield client.call("server", "work", timeout=timeout)
        except RpcTimeout as exc:
            seen[name] = (k.now, t0 + timeout, exc.timeout)

    k.process(caller("long", 0.1, 30.0))
    k.process(caller("short", 0.7, 2.0))  # issued later, expires first
    k.process(caller("mid", 0.3, 7.0))
    k.run()
    for name, (failed_at, deadline, _timeout) in seen.items():
        assert failed_at == deadline, name  # float equality: no instant moved
    assert seen["short"][0] < seen["mid"][0] < seen["long"][0]
    assert [seen[n][2] for n in ("long", "short", "mid")] == [30.0, 2.0, 7.0]
    assert not client._deadlines and not client._pending_calls


def test_late_reply_after_expiry_is_dropped():
    k, _net, client, _server = make_pair()
    outcomes = []

    def caller():
        event = client.call("server", "slow", timeout=1.0, delay=3.0)
        try:
            yield event
        except RpcTimeout:
            outcomes.append(("timeout", k.now))
        yield k.timeout(5.0)  # the reply lands at ~3 s, long after expiry
        outcomes.append((type(event.value).__name__, k.now))

    k.process(caller())
    k.run()
    assert outcomes == [("timeout", 1.0), ("RpcTimeout", 6.0)]


def test_crash_forgets_deadlines_of_outstanding_calls():
    k, _net, client, server = make_pair()
    server.crash()
    outcomes = []

    def doomed():
        yield client.call("server", "work", timeout=2.0)
        outcomes.append("doomed caller resumed")

    def after_revive():
        yield k.timeout(1.5)
        server.revive()
        # Issued at 1.5 s with 2 s to live: the old call's timer (due at
        # 2.0 s, still in the kernel queue) must not cut this one short.
        t0 = k.now
        value = yield client.call("server", "slow", timeout=2.0, delay=1.0)
        outcomes.append((value, k.now - t0 >= 1.0))

    client.spawn(doomed())
    k.process(after_revive())
    k.call_later(1.0, lambda _arg: (client.crash(), client.revive()))
    k.run()
    assert outcomes == [("late", True)]
    assert not client._deadlines and client._timer_at == float("inf")


def test_call_without_timeout_never_expires():
    k, _net, client, server = make_pair()
    server.crash()
    event = client.call("server", "work")
    k.run(until=3600.0)
    assert not event.triggered
    assert not client._deadlines


def test_remote_error_reaches_a_caller_that_waits_later():
    """A reply that lands before the caller yields the event is kept."""
    k, _net, client, _server = make_pair()
    outcomes = []

    def caller():
        bad = client.call("server", "nope", timeout=5.0)
        good = client.call("server", "work", timeout=5.0)
        yield k.timeout(1.0)  # both replies arrive meanwhile
        assert bad.processed and good.processed
        outcomes.append((yield good))
        try:
            yield bad
        except RemoteError as exc:
            outcomes.append(str(exc))

    k.run_until_complete(k.process(caller()))
    assert outcomes[0] == 1 and "no such method" in outcomes[1]


def test_chaos_duplicates_execute_the_handler_once():
    k, net, client, server = make_pair(seed=3)
    net.configure_chaos(duplicate_probability=0.9)
    n = 50

    def caller():
        for i in range(n):
            assert (yield client.call("server", "work", timeout=5.0)) == i + 1

    k.run_until_complete(k.process(caller()))
    assert net.messages_duplicated > n  # requests and replies were doubled
    assert server.executed == n
