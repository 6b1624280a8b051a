"""RPC deadlines against a brute-force model.

:class:`~repro.sim.node.Node` keeps its deadlines in a heap, drops an
answered call's entry lazily when it surfaces, and arms one kernel timer
for the earliest call still owed.  The model does the same the plain way:
an unordered list, scanned in full at every firing.  Random call
schedules -- issue times, timeouts from a small set (so deadlines of
different timeouts coincide), answered, late or never answered, single
calls and batches, and an optional crash of the caller -- must fail the
same calls at the same instants in the same order, with the same number
of kernel events.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import RpcTimeout
from repro.sim import Kernel, Network, Node
from repro.sim.network import LatencyModel

_NEVER = float("inf")

#: Dyadic instants and durations: sums are exact, so 0.5 + 1.0 and
#: 1.0 + 0.5 reach one deadline from two timeouts.
TIMEOUTS = (0.5, 1.0, 1.5, 2.0)
instants = st.integers(0, 12).map(lambda i: i * 0.25)
calls = st.lists(
    st.tuples(
        instants,                                          # issued at
        st.sampled_from(TIMEOUTS),                         # timeout
        st.none() | st.integers(1, 10).map(lambda i: i * 0.25),  # answer after
        st.booleans(),                                     # as a batch of two
    ),
    min_size=1,
    max_size=14,
)


class ScanDeadlineNode(Node):
    """The model: a list of ``(when, req_id, dst, method, timeout)``."""

    def call(self, dst, method, timeout=None, size=256, **payload):
        # Node.call arms its deadline inline; the model arms it here.
        result = super().call(dst, method, size=size, **payload)
        if timeout is not None and self.alive:
            req_id = next(reversed(self._pending_calls))
            self._set_deadline(req_id, dst, method, timeout)
        return result

    def _set_deadline(self, req_id, dst, method, timeout):
        when = self.kernel.now + timeout
        self._deadlines.append((when, req_id, dst, method, timeout))
        if when < self._timer_at:
            self._timer_at = when
            self.kernel.call_at(when, self._on_deadline, when)

    def _on_deadline(self, when):
        if when != self._timer_at:
            return
        calls, batches = self._pending_calls, self._pending_batches
        owed = [d for d in self._deadlines if d[1] in calls or d[1] in batches]
        expired = sorted(d for d in owed if d[0] <= when)
        for _due, req_id, dst, method, timeout in expired:
            event = calls.pop(req_id, None)
            for event in batches.pop(req_id, ()) if event is None else (event,):
                if not event.triggered:
                    event.fail(RpcTimeout(dst, method, timeout))
        self._deadlines = [d for d in owed if d[0] > when]
        self._timer_at = min((d[0] for d in self._deadlines), default=_NEVER)
        if self._deadlines:
            self.kernel.call_at(self._timer_at, self._on_deadline, self._timer_at)


class Server(Node):
    def rpc_work(self, sender, after):
        if after is None:
            yield self.kernel.event()  # never answered
        yield self.kernel.timeout(after)
        return after


def play(client_type, schedule, crash_at):
    """Run ``schedule`` with a ``client_type`` caller; what happened, and when."""
    k = Kernel(seed=0)
    net = Network(k, LatencyModel(mean_latency=0.0, bandwidth_bytes_per_s=0.0))
    client = client_type(k, net, "client")
    Server(k, net, "server")
    issued, outcomes = [], []

    def issue(index):
        _t0, timeout, after, batch = schedule[index]
        issued.append(index)
        if batch:
            events = client.call_batch(
                "server", "work", [{"after": after}, {"after": after}], timeout=timeout
            )
        else:
            events = [client.call("server", "work", timeout=timeout, after=after)]
        for item, event in enumerate(events):
            event.callbacks.append(
                lambda ev, index=index, item=item: outcomes.append(
                    (k.now, index, item, ev.ok, type(ev.value).__name__)
                )
            )

    for index, (t0, _timeout, _after, _batch) in enumerate(schedule):
        k.call_at(t0, issue, index)
    if crash_at is not None:
        k.call_at(crash_at, lambda _arg: (client.crash(), client.revive()))
    k.run()
    return client, k.event_count, issued, outcomes


@given(calls, st.none() | instants)
@settings(max_examples=300, deadline=None)
def test_deadlines_fail_like_a_full_scan(schedule, crash_at):
    client, events, issued, outcomes = play(Node, schedule, crash_at)
    model, model_events, _issued, model_outcomes = play(
        ScanDeadlineNode, schedule, crash_at
    )
    assert outcomes == model_outcomes
    assert events == model_events
    assert not client._deadlines and client._timer_at == _NEVER
    assert not model._deadlines

    # The same properties, stated without the model.
    rank = {index: position for position, index in enumerate(issued)}
    expiries = [(now, index, item) for now, index, item, _ok, kind in outcomes
                if kind == "RpcTimeout"]
    for now, index, _item in expiries:
        t0, timeout, _after, _batch = schedule[index]
        assert now == t0 + timeout  # exactly its deadline, no instant moved
    assert expiries == sorted(
        expiries, key=lambda e: (e[0], rank[e[1]], e[2])
    )  # (deadline, req_id) order; a batch's items in item order
    for index, (t0, timeout, after, batch) in enumerate(schedule):
        if crash_at is not None and t0 <= crash_at <= t0 + timeout:
            continue  # the crash may forget the call
        # A batch's items are served one after the other.
        answered = None if after is None else after * (2 if batch else 1)
        if answered == timeout:
            continue  # a tie goes to whichever the kernel queued first
        expected = "RpcTimeout" if answered is None or answered > timeout else "float"
        kinds = {kind for _now, i, _item, _ok, kind in outcomes if i == index}
        assert kinds == {expected}
