"""Unit tests for the network chaos layer (loss, duplication, spikes,
degradation) and the fabric counters that report on it."""

import pytest

from repro.errors import RpcTimeout
from repro.sim import Kernel, Network, Node


class CountingNode(Node):
    """Counts handler executions, to observe dedup and loss end-to-end."""

    def __init__(self, kernel, net, addr):
        super().__init__(kernel, net, addr)
        self.hits = 0

    def rpc_ping(self, sender):
        self.hits += 1
        return "pong"


def make_pair(seed=0):
    k = Kernel(seed=seed)
    net = Network(k)
    a = CountingNode(k, net, "a")
    b = CountingNode(k, net, "b")
    return k, net, a, b


def run_calls(k, caller, dst, method, n, timeout=1.0, **payload):
    """Issue ``n`` sequential calls; returns (successes, failures)."""
    tally = {"ok": 0, "err": 0}

    def proc():
        for _ in range(n):
            try:
                yield caller.call(dst, method, timeout=timeout, **payload)
                tally["ok"] += 1
            except Exception:
                tally["err"] += 1

    k.process(proc())
    k.run()
    return tally["ok"], tally["err"]


def run_until_value(k, gen):
    """Run ``gen`` as a process and return its return value."""
    out = {}

    def proc():
        out["value"] = yield from gen

    k.run_until_complete(k.process(proc()))
    return out["value"]


# ----------------------------------------------------------------------
# knob validation
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "kwargs",
    [
        {"loss_probability": 1.0},
        {"loss_probability": -0.1},
        {"duplicate_probability": 1.5},
        {"delay_spike_probability": 1.0},
        {"delay_spike_factor": 0.5},
    ],
)
def test_configure_chaos_rejects_bad_knobs(kwargs):
    _k, net, _a, _b = make_pair()
    with pytest.raises(ValueError):
        net.configure_chaos(**kwargs)


def test_configure_chaos_none_leaves_knobs_alone():
    _k, net, _a, _b = make_pair()
    net.configure_chaos(loss_probability=0.3, duplicate_probability=0.2)
    net.configure_chaos(duplicate_probability=0.05)
    assert net.loss_probability == 0.3
    assert net.duplicate_probability == 0.05


def test_degrade_rejects_speedups():
    _k, net, _a, _b = make_pair()
    with pytest.raises(ValueError):
        net.degrade("b", 0.9)


# ----------------------------------------------------------------------
# loss / duplication / spikes
# ----------------------------------------------------------------------

def test_loss_drops_messages_and_counts_them():
    k, net, a, b = make_pair(seed=1)
    net.configure_chaos(loss_probability=0.9)
    ok, err = run_calls(k, a, "b", "ping", 30, timeout=0.05)
    assert net.messages_lost > 0
    assert b.hits < 30  # most requests vanished
    assert err > 0  # and their callers timed out
    assert ok + err == 30


def test_duplicates_execute_handlers_at_most_once():
    k, net, a, b = make_pair(seed=2)
    net.configure_chaos(duplicate_probability=0.9)
    ok, err = run_calls(k, a, "b", "ping", 20, timeout=1.0)
    assert ok == 20 and err == 0
    assert b.hits == 20  # transport dedup: one execution per request id
    assert net.messages_duplicated > 0
    assert net.duplicates_suppressed > 0


class KeyedNode(Node):
    """Counts handler executions per request key."""

    def __init__(self, kernel, net, addr):
        super().__init__(kernel, net, addr)
        self.runs = {}

    def rpc_mark(self, sender, key):
        self.runs[key] = self.runs.get(key, 0) + 1
        return key


def test_every_duplicated_request_runs_its_handler_once():
    # Both deliveries of a duplicated message share one Message, which
    # the fabric marks; the copy that runs first stamps it, and its twin
    # is suppressed.
    k = Kernel(seed=0)
    net = Network(k)
    net.duplicate_probability = 1.0  # past configure_chaos's [0, 1) check
    a, b = KeyedNode(k, net, "a"), KeyedNode(k, net, "b")
    replies = []

    def caller():
        for i in range(20):
            replies.append((yield a.call("b", "mark", timeout=1.0, key=f"c{i}")))
            batch = a.call_batch(
                "b", "mark", [{"key": f"b{i}.0"}, {"key": f"b{i}.1"}], timeout=1.0
            )
            for event in batch:
                replies.append((yield event))
        a.cast("b", "mark", key="cast")  # no request id: nothing to look up

    k.run_until_complete(k.process(caller()))
    k.run()
    keys = [f"c{i}" for i in range(20)] + [
        f"b{i}.{j}" for i in range(20) for j in (0, 1)
    ]
    assert sorted(replies) == sorted(keys)
    assert all(b.runs[key] == 1 for key in keys)
    assert b.runs["cast"] == 2  # a cast is not deduplicated
    # 40 requests (20 calls, 20 batches), each delivered twice.
    assert net.messages_duplicated == net.messages_sent
    assert net.duplicates_suppressed == 40

def test_delay_spikes_stretch_delivery():
    k, net, a, _b = make_pair(seed=3)
    net.configure_chaos(delay_spike_probability=0.9, delay_spike_factor=1000.0)
    ok, _err = run_calls(k, a, "b", "ping", 1, timeout=10.0)
    assert ok == 1
    assert net.delay_spikes >= 1
    assert k.now > 0.05  # vs ~0.0006 round trip on the polite fabric


def test_degradation_multiplies_latency_and_restore_undoes_it():
    k, net, a, _b = make_pair()

    def timed_ping():
        start = k.now
        yield a.call("b", "ping")  # no timeout: the clock stops at the reply
        return k.now - start

    baseline = run_until_value(k, timed_ping())
    net.degrade("b", 100.0)
    degraded = run_until_value(k, timed_ping())
    assert degraded > 50 * baseline
    net.restore("b")
    restored = run_until_value(k, timed_ping())
    assert restored < 2 * baseline


# ----------------------------------------------------------------------
# send-time reachability and counters
# ----------------------------------------------------------------------

def test_partition_drop_happens_at_send_time():
    k, net, a, b = make_pair()
    net.partition(["a"], ["b"])
    a.cast("b", "ping")
    net.heal()  # heals before any sampled delay could elapse
    k.run()
    assert b.hits == 0  # the message was dropped when injected, not later
    assert net.messages_dropped == 1


def test_chaos_counters_snapshot():
    k, net, a, _b = make_pair()
    run_calls(k, a, "b", "ping", 2)
    counters = net.metrics()["counters"]
    assert counters["messages_sent"] == 4  # 2 requests + 2 responses
    for key in (
        "messages_dropped", "messages_lost", "messages_duplicated",
        "delay_spikes", "rpc_retries", "duplicates_suppressed",
    ):
        assert counters[key] == 0


def test_chaos_draws_do_not_perturb_latency_jitter():
    # Same seed, chaos knobs on (but never firing at p=0 ... via separate
    # substream): delivery times must match the chaos-free run exactly.
    k1, _net1, a1, _b1 = make_pair(seed=9)
    run_calls(k1, a1, "b", "ping", 5)
    k2, net2, a2, _b2 = make_pair(seed=9)
    net2.configure_chaos(delay_spike_factor=50.0)  # knob set, prob still 0
    run_calls(k2, a2, "b", "ping", 5)
    assert k1.now == k2.now


# ----------------------------------------------------------------------
# request-id allocation
# ----------------------------------------------------------------------

def test_req_ids_are_per_kernel():
    k1, k2 = Kernel(seed=1), Kernel(seed=2)
    first = [k1.next_req_id() for _ in range(3)]
    # A fresh kernel restarts the sequence: ids are kernel-scoped, so two
    # simulations never interleave counters (determinism across runs).
    assert [k2.next_req_id() for _ in range(3)] == first
    assert len(set(first)) == 3
