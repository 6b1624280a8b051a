"""The kernel's pop order against a brute-force model.

The kernel keeps its queue as a heap of ``(when, priority, seq, fn, arg)``
entries and re-pushes the entry it pops past a ``run(until=)`` horizon.
The model keeps an unordered list of ``(when, priority, seq, action)`` and
takes the least entry by a full scan at every step.  Random programs --
``call_at`` / ``call_later``, events succeeded or failed at URGENT and
at NORMAL, timeouts (zero-delay ones included), processes started by
``Kernel.process``, ``Node.spawn`` and ``Node.fork`` and interrupted at
random, each entry free to schedule more when it fires -- driven in
``run(until=)`` slices and single ``step()`` calls must fire the same
things at the same instants in the same order, with the same
``event_count`` after every slice.

A process is modelled by what the kernel promises of it: a queued URGENT
kick-off (none for a fork, whose first step runs in the caller), an end
that is queued for a ``Kernel.process`` and in place for a node's own,
an interrupt that is an URGENT wake-up detaching the process from its
wait, and a death that is queued.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Kernel, Network, Node
from repro.sim.events import NORMAL, URGENT
from tests.sim.kernel_queue import head

#: Delays from a small dyadic set, so instants coincide and sums are exact.
delays = st.sampled_from((0.0, 0.5, 1.0))
priorities = st.sampled_from((URGENT, NORMAL))


def _ops(children):
    return st.one_of(
        st.tuples(st.sampled_from(("call_at", "call_later", "timeout")), delays, children),
        st.tuples(st.sampled_from(("succeed", "fail")), priorities, children),
        st.tuples(st.sampled_from(("process", "spawn", "fork")), delays, st.just(())),
        st.tuples(st.just("interrupt"), st.integers(0, 7), st.just(())),
    )


#: One operation: ``(kind, delay / priority / process index, children)``;
#: the children are issued when the operation's entry fires.
ops = st.recursive(
    _ops(st.just(())),
    lambda inner: _ops(st.lists(inner, max_size=3).map(tuple)),
    max_leaves=12,
)
programs = st.lists(
    st.one_of(
        ops.map(lambda op: ("do", op)),
        st.tuples(st.just("run"), st.sampled_from((0.0, 0.25, 0.5, 1.0))),
        st.just(("step",)),
    ),
    max_size=20,
)


class Real:
    """The program on a real kernel, logging what fires and when."""

    def __init__(self) -> None:
        self.kernel = Kernel(strict=True)
        self.node = Node(self.kernel, Network(self.kernel), "n")
        self.log = []
        self.procs = []
        self.labels = itertools.count()

    def issue(self, op) -> None:
        kind, param, children = op
        label = next(self.labels)
        k = self.kernel

        def fire(_arg):
            self.log.append((label, k.now))
            for child in children:
                self.issue(child)

        if kind == "call_at":
            k.call_at(k.now + param, fire)
        elif kind == "call_later":
            k.call_later(param, fire)
        elif kind == "timeout":
            k.timeout(param).callbacks.append(fire)
        elif kind in ("succeed", "fail"):
            event = k.event()
            event.callbacks.append(fire)
            if kind == "succeed":
                event.succeed(priority=param)
            else:
                event.fail(ValueError(label), priority=param)
        elif kind == "interrupt":
            if self.procs:
                self.procs[param % len(self.procs)].interrupt("stop")
        else:
            body = self.body(label, param)
            start = {"process": k.process, "spawn": self.node.spawn,
                     "fork": self.node.fork}[kind]
            self.procs.append(start(body))

    def body(self, label, delay):
        k = self.kernel
        self.log.append((label, "start", k.now))
        try:
            yield k.timeout(delay)
        except Interrupt:
            self.log.append((label, "interrupted", k.now))
            raise
        self.log.append((label, "wake", k.now))

    @property
    def pending(self) -> bool:
        return head(self.kernel) is not None

    def run(self, until=None) -> None:
        self.kernel.run(until=until)

    def step(self) -> None:
        self.kernel.step()

    def state(self):
        return self.kernel.now, self.kernel.event_count, list(self.log)


class ModelProcess:
    """What the model knows of one process."""

    def __init__(self, model: "Model", label, delay, queued_end: bool) -> None:
        self.model, self.label, self.delay = model, label, delay
        self.queued_end = queued_end
        self.started = self.done = False
        self.waiting_on = None  # the wait token a resume is attached to

    def kick_off(self) -> None:
        if not self.done and self.waiting_on is None:
            self.start()

    def start(self) -> None:
        model = self.model
        self.started = True
        model.log.append((self.label, "start", model.now))
        token = self.waiting_on = object()
        model.push(model.now + self.delay, NORMAL, lambda: self.wake(token))

    def wake(self, token) -> None:
        if self.waiting_on is not token:
            return  # detached by an interrupt
        self.waiting_on = None
        self.done = True
        self.model.log.append((self.label, "wake", self.model.now))
        if self.queued_end:
            self.model.push(self.model.now, NORMAL, lambda: None)

    def interrupt(self) -> None:
        if self.done:
            return
        token = object()
        # A process that has not started parks on the wake-up, so its
        # kick-off passes; one that has is detached from its wait.
        self.waiting_on = token if not self.started else None
        self.model.push(self.model.now, URGENT, lambda: self.die(token))

    def die(self, token) -> None:
        if self.done or (not self.started and self.waiting_on is not token):
            return  # stray, or a wake-up superseded before the first step
        if self.started:
            self.model.log.append((self.label, "interrupted", self.model.now))
        self.waiting_on = None
        self.done = True
        self.model.push(self.model.now, NORMAL, lambda: None)  # the failure


class Model:
    """The program on a list scanned in full for its least entry."""

    def __init__(self) -> None:
        self.now = 0.0
        self.count = 0
        self.seq = 0
        self.entries = []
        self.log = []
        self.procs = []
        self.labels = itertools.count()

    def push(self, when, priority, action) -> None:
        self.seq += 1
        self.entries.append((when, priority, self.seq, action))

    def issue(self, op) -> None:
        kind, param, children = op
        label = next(self.labels)

        def fire():
            self.log.append((label, self.now))
            for child in children:
                self.issue(child)

        if kind in ("call_at", "call_later", "timeout"):
            self.push(self.now + param, NORMAL, fire)
        elif kind in ("succeed", "fail"):
            self.push(self.now, param, fire)
        elif kind == "interrupt":
            if self.procs:
                self.procs[param % len(self.procs)].interrupt()
        else:
            process = ModelProcess(self, label, param, queued_end=kind == "process")
            self.procs.append(process)
            if kind == "fork":
                process.start()
            else:
                self.push(self.now, URGENT, process.kick_off)

    @property
    def pending(self) -> bool:
        return bool(self.entries)

    def _pop(self):
        entry = min(self.entries, key=lambda e: e[:3])
        self.entries.remove(entry)
        self.now = entry[0]
        self.count += 1
        entry[3]()

    def run(self, until=None) -> None:
        while self.entries and (
            until is None or min(e[0] for e in self.entries) <= until
        ):
            self._pop()
        if until is not None and self.now < until:
            self.now = until

    def step(self) -> None:
        self._pop()

    def state(self):
        return self.now, self.count, list(self.log)


@given(programs)
@settings(max_examples=300, deadline=None)
def test_kernel_pops_in_the_order_of_a_full_scan(program):
    real, model = Real(), Model()
    for action in program:
        if action[0] == "do":
            for side in (real, model):
                side.issue(action[1])
        elif action[0] == "run":
            until = real.kernel.now + action[1]
            for side in (real, model):
                side.run(until)
            assert real.state() == model.state()
        elif real.pending:
            assert model.pending
            for side in (real, model):
                side.step()
        assert real.pending == model.pending
    for side in (real, model):
        side.run()
    assert real.state() == model.state()
