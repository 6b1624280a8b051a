"""Discrete-event simulation substrate.

This package is a small, deterministic, SimPy-flavoured kernel: generator
processes yield :class:`~repro.sim.events.Event` objects to suspend; a
seeded scheduler replays identically for a given seed.  On top of it sit a
latency-modelled network with crash/partition failure injection, capacity
resources for CPU/disk contention, and a stable-storage model.
"""

from repro.sim.disk import Disk
from repro.sim.events import AllOf, Event, Interrupt, Timeout
from repro.sim.kernel import Kernel
from repro.sim.network import LatencyModel, Message, Network
from repro.sim.node import Node
from repro.sim.process import Process
from repro.sim.resource import Resource, SimQueue
from repro.sim.retry import DEFAULT_RPC_RETRY, UNBOUNDED_RETRY, RetryPolicy
from repro.sim.rng import SeededRng, zipfian_sampler

__all__ = [
    "AllOf",
    "DEFAULT_RPC_RETRY",
    "Disk",
    "Event",
    "Interrupt",
    "Kernel",
    "LatencyModel",
    "Message",
    "Network",
    "Node",
    "Process",
    "Resource",
    "RetryPolicy",
    "SeededRng",
    "SimQueue",
    "Timeout",
    "UNBOUNDED_RETRY",
    "zipfian_sampler",
]
