"""Host time at reference machine speed.

The sandbox this benchmark runs on drifts between faster and slower phases
that last minutes (neighbours on the same host): the same repeat took 3.1 s
in one quarter of an hour and 4.0 s in the next, which no amount of
repetition inside one run can average away.  So beside every host-timed
piece of work the benchmark times a fixed loop of its own -- a few thousand
heap pushes and pops, dict stores and generator resumptions, the kind of
bytecode the simulator runs -- and scales the measured seconds by
``CAL_REF_S / (calibration seconds)``.  What is reported is host seconds *at
the speed at which the calibration loop takes CAL_REF_S*; the loop is the
benchmark's own and never changes, so a change to the program moves the
numerator only.
"""

from __future__ import annotations

import gc
import heapq
import time

CAL_LOOPS = 10_000

#: Fastest time of one :func:`calibrate` call seen on the 2-core sandbox at
#: the seed commit.  Only fixes the scale of the reported seconds.
CAL_REF_S = 0.0072


def _ticker():
    while True:
        yield


def calibrate() -> float:
    """Host seconds one pass of the fixed calibration loop takes right now.

    The collector is off for the pass: a collection's cost grows with the
    program's heap, and the loop must time the machine, not the program.
    """
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop
    table: dict = {}
    tick = _ticker()
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for i in range(CAL_LOOPS):
            push(heap, ((i * 0.7) % 1.0, i, None))
            if i & 1:
                pop(heap)
            table[i & 1023] = (i, "x")
            next(tick)
        return time.perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def at_reference_speed(host_s: float, calibration_s: float, calibrations: int = 1) -> float:
    """``host_s`` scaled to the speed at which one calibration takes CAL_REF_S."""
    return host_s * (CAL_REF_S * calibrations) / calibration_s
