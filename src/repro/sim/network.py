"""Latency-modelled message passing between simulated nodes.

The model matches the paper's testbed at the level that matters for the
experiments: a switched LAN with per-message propagation delay plus a
bandwidth term (the paper used 100 Mbps Ethernet, so kilobyte-sized
write-sets are not free).  Partitions and node crashes drop messages; there
is no reordering beyond what differing latencies produce.

On top of the polite-LAN baseline sits a **chaos layer** for adversarial
testing: probabilistic message loss, duplication, heavy-tail delay spikes,
and per-node link degradation ("slow node").  All chaos draws come from a
dedicated RNG substream, so enabling chaos never perturbs the latency
jitter sequence, and a given seed replays the same hostile schedule
bit-for-bit.  Everything is off by default -- the fair-loss/crash-stop
model the paper assumes is the zero-probability special case.
"""

from __future__ import annotations

import itertools
import typing
from typing import Any, Dict, FrozenSet, List, Optional, Set

from repro.errors import SimulationError
from repro.metrics.registry import MetricsRegistry

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Kernel
    from repro.sim.node import Node


#: Fabric counters: plain int attributes on :class:`Network`, mirrored into
#: the registry by :meth:`Network.metrics`.  Kept as raw ints (not
#: :class:`~repro.metrics.registry.Counter` objects) because the send path
#: bumps several of them per message -- attribute increments stay in C.
_FABRIC_COUNTERS = (
    "messages_sent", "messages_dropped", "messages_lost",
    "messages_duplicated", "delay_spikes", "rpc_retries",
    "duplicates_suppressed",
)


class Message:
    """One network message (RPC request or response).

    Instances are pooled by the fabric (see :meth:`Network.message`):
    ``_refs`` counts outstanding users -- one per scheduled delivery, plus
    one while a generator RPC handler still holds the request -- and the
    object is recycled when the count hits zero.  Payload dicts are never
    pooled; the reference is dropped at release time.
    """

    __slots__ = (
        "src", "dst", "kind", "req_id", "method", "payload",
        "ok", "error", "size", "_refs",
    )

    def __init__(
        self,
        src: str,
        dst: str,
        kind: str,  # "request" | "response"
        req_id: int,
        method: str,
        payload: Dict[str, Any],
        ok: bool = True,
        error: Optional[str] = None,
        size: int = 256,  # bytes, for the bandwidth term
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.req_id = req_id
        self.method = method
        self.payload = payload
        self.ok = ok
        self.error = error
        self.size = size
        self._refs = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind} {self.src}->{self.dst} "
            f"#{self.req_id} {self.method})"
        )


class LatencyModel:
    """One-way delivery delay: propagation + size/bandwidth, with jitter.

    Plain parameters; :meth:`Network.send` draws each delay from them.
    """

    def __init__(
        self,
        mean_latency: float = 0.00025,
        jitter_fraction: float = 0.2,
        bandwidth_bytes_per_s: float = 12.5e6,
    ) -> None:
        self.mean_latency = mean_latency
        self.jitter_fraction = jitter_fraction
        self.bandwidth_bytes_per_s = bandwidth_bytes_per_s


class Network:
    """The message fabric connecting all nodes of one simulated cluster."""

    def __init__(self, kernel: "Kernel", latency: Optional[LatencyModel] = None) -> None:
        self.kernel = kernel
        self.latency = latency or LatencyModel()
        self.nodes: Dict[str, "Node"] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        self._rng = kernel.rng.substream("network")
        #: Registry behind every fabric counter (see ``metrics()``).
        self.registry = MetricsRegistry("network", "net")
        for name in _FABRIC_COUNTERS:
            self.registry.counter(name)
            setattr(self, name, 0)
        #: Optional message tracer (see repro.metrics.tracing).
        self.tracer = None
        # Free list of recycled Message shells (see ``message()``).
        self._pool: List[Message] = []
        # ----- chaos layer (all off by default) ------------------------
        #: Probability that a message vanishes in flight.
        self.loss_probability = 0.0
        #: Probability that a message is delivered twice (independent
        #: delays, so the copies may reorder).
        self.duplicate_probability = 0.0
        #: Probability of a heavy-tail delay spike on one delivery.
        self.delay_spike_probability = 0.0
        #: Multiplier applied to the sampled delay on a spike.
        self.delay_spike_factor = 25.0
        #: Per-node delay multipliers ("slow node"): messages to or from a
        #: degraded address take factor-times longer.
        self._degraded: Dict[str, float] = {}
        # Chaos draws use their own substream so that turning chaos on
        # does not shift the latency-jitter sequence of `_rng`.
        self._chaos_rng = kernel.rng.substream("network.chaos")

    def metrics(self) -> dict:
        """Uniform registry snapshot for the network fabric.

        The hot-path fabric counters live as plain int attributes; they
        are mirrored into the registry here, at snapshot time.
        """
        for name in _FABRIC_COUNTERS:
            self.registry.counter(name).set(getattr(self, name))
        return self.registry.snapshot()

    # ------------------------------------------------------------------
    # chaos configuration
    # ------------------------------------------------------------------
    def configure_chaos(
        self,
        loss_probability: Optional[float] = None,
        duplicate_probability: Optional[float] = None,
        delay_spike_probability: Optional[float] = None,
        delay_spike_factor: Optional[float] = None,
    ) -> None:
        """Set any subset of the chaos knobs (None leaves a knob alone)."""
        for name, value in (
            ("loss_probability", loss_probability),
            ("duplicate_probability", duplicate_probability),
            ("delay_spike_probability", delay_spike_probability),
        ):
            if value is not None:
                if not 0.0 <= value < 1.0:
                    raise ValueError(f"{name} {value} outside [0, 1)")
                setattr(self, name, value)
        if delay_spike_factor is not None:
            if delay_spike_factor < 1.0:
                raise ValueError(f"delay_spike_factor {delay_spike_factor} < 1")
            self.delay_spike_factor = delay_spike_factor

    def degrade(self, addr: str, factor: float) -> None:
        """Degrade every link touching ``addr`` by a delay multiplier."""
        if factor < 1.0:
            raise ValueError(f"degradation factor {factor} < 1")
        self._degraded[addr] = factor

    def restore(self, addr: Optional[str] = None) -> None:
        """Undo :meth:`degrade` (all degradations when ``addr`` is None)."""
        if addr is None:
            self._degraded.clear()
        else:
            self._degraded.pop(addr, None)

    # ------------------------------------------------------------------
    # membership
    # ------------------------------------------------------------------
    def register(self, node: "Node", replace: bool = False) -> None:
        """Attach a node to the fabric under its address."""
        if node.addr in self.nodes and not replace:
            existing = self.nodes[node.addr]
            if existing is not node and existing.alive:
                raise SimulationError(f"address {node.addr!r} already registered")
        self.nodes[node.addr] = node

    def node(self, addr: str) -> "Node":
        """Look up a registered node by address."""
        try:
            return self.nodes[addr]
        except KeyError:
            raise SimulationError(f"unknown node address {addr!r}") from None

    # ------------------------------------------------------------------
    # partitions
    # ------------------------------------------------------------------
    def partition(self, group_a, group_b) -> None:
        """Block all traffic between the two address groups."""
        for a, b in itertools.product(group_a, group_b):
            self._partitions.add(frozenset((a, b)))

    def heal(self, group_a=None, group_b=None) -> None:
        """Remove partitions (all of them when called without arguments)."""
        if group_a is None or group_b is None:
            self._partitions.clear()
            return
        for a, b in itertools.product(group_a, group_b):
            self._partitions.discard(frozenset((a, b)))

    def reachable(self, src: str, dst: str) -> bool:
        """Whether a message from ``src`` can currently reach ``dst``."""
        # No-partition fast path: skip the frozenset allocation entirely.
        if self._partitions and frozenset((src, dst)) in self._partitions:
            return False
        node = self.nodes.get(dst)
        return node is not None and node.alive

    # ------------------------------------------------------------------
    # message pool
    # ------------------------------------------------------------------
    def message(
        self,
        src: str,
        dst: str,
        kind: str,
        req_id: int,
        method: str,
        payload: Dict[str, Any],
        ok: bool = True,
        error: Optional[str] = None,
        size: int = 256,
    ) -> Message:
        """A :class:`Message`, recycled from the pool when one is free."""
        pool = self._pool
        if pool:
            msg = pool.pop()
            msg.src = src
            msg.dst = dst
            msg.kind = kind
            msg.req_id = req_id
            msg.method = method
            msg.payload = payload
            msg.ok = ok
            msg.error = error
            msg.size = size
            msg._refs = 0
            return msg
        return Message(src, dst, kind, req_id, method, payload, ok, error, size)

    def _release(self, message: Message) -> None:
        """Drop one reference; recycle the shell when nobody holds it."""
        message._refs -= 1
        if message._refs == 0 and len(self._pool) < 256:
            message.payload = None  # never pool payload dicts
            self._pool.append(message)

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Dispatch a message; it arrives after a sampled one-way delay.

        Reachability is evaluated at both ends of the flight.  At *send*
        time: a message injected into a partitioned link (or towards a
        dead node) is dropped immediately -- it must not be resurrected by
        a partition that heals before the sampled delay elapses.  At
        *delivery* time: a message in flight when its destination dies is
        lost, while one in flight when the destination is healthy is
        delivered even if the sender has since crashed (packets do not
        recall themselves).

        The chaos layer then applies, in a fixed draw order for
        reproducibility: loss, duplication, and per-delivery delay spikes,
        with per-node degradation multiplying every delay.
        """
        self.messages_sent += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.record(
                self.kernel.now, "send", message.src, message.dst, message.method
            )
        # Inlined reachable() -- once per message, and send() is one of the
        # hottest functions in the simulator.
        node = self.nodes.get(message.dst)
        if (
            node is None
            or not node.alive
            or (
                self._partitions
                and frozenset((message.src, message.dst)) in self._partitions
            )
        ):
            self.messages_dropped += 1
            if tracer is not None:
                tracer.record(
                    self.kernel.now, "drop", message.src, message.dst,
                    message.method,
                )
            message._refs = 1
            self._release(message)
            return
        chaos = self._chaos_rng
        if self.loss_probability > 0.0 and chaos.random() < self.loss_probability:
            self.messages_lost += 1
            if self.tracer is not None:
                self.tracer.record(
                    self.kernel.now, "lose", message.src, message.dst,
                    message.method,
                )
            message._refs = 1
            self._release(message)
            return
        copies = 1
        if (
            self.duplicate_probability > 0.0
            and chaos.random() < self.duplicate_probability
        ):
            self.messages_duplicated += 1
            copies = 2
        degradation = 1.0
        if self._degraded:
            degradation = self._degraded.get(message.src, 1.0) * self._degraded.get(
                message.dst, 1.0
            )
        # Both chaos copies share one Message object; each scheduled
        # delivery holds one reference until it lands (or is dropped).
        message._refs = copies
        call_later = self.kernel.call_later
        deliver = self._deliver
        # One-way delay: propagation with bounded uniform jitter (as
        # SeededRng.jittered, inlined with the same arithmetic and draw
        # order; a mean <= 0 is no delay and no draw) plus size/bandwidth.
        latency = self.latency
        mean = latency.mean_latency
        low = mean * (1.0 - latency.jitter_fraction)
        width = mean * (1.0 + latency.jitter_fraction) - low
        bandwidth = latency.bandwidth_bytes_per_s
        spike_probability = self.delay_spike_probability
        for _copy in range(copies):
            delay = low + width * self._rng.random() if mean > 0 else 0.0
            if bandwidth > 0:
                delay += message.size / bandwidth
            if spike_probability > 0.0 and chaos.random() < spike_probability:
                self.delay_spikes += 1
                delay *= self.delay_spike_factor
            call_later(delay * degradation, deliver, message)

    def _deliver(self, message: Message) -> None:
        # Inlined reachable(): this runs once per in-flight message.
        node = self.nodes.get(message.dst)
        if (
            node is None
            or not node.alive
            or (
                self._partitions
                and frozenset((message.src, message.dst)) in self._partitions
            )
        ):
            self.messages_dropped += 1
            if self.tracer is not None:
                self.tracer.record(
                    self.kernel.now, "drop", message.src, message.dst,
                    message.method,
                )
            self._release(message)
            return
        if self.tracer is not None:
            self.tracer.record(
                self.kernel.now, "deliver", message.src, message.dst,
                message.method,
            )
        node._on_message(message)
        self._release(message)
