"""Two event-queue classes that no kernel uses.

The :class:`~repro.sim.kernel.Kernel` keeps its queue as a plain list
driven by :mod:`heapq` directly.  These two classes remain only for the
heap-against-calendar micro-bench in the frozen ``bench/micro.py`` (via
:func:`make_queue`) and the pop-order tests in ``tests/sim/test_equeue.py``,
and go with them.  Both pop in exactly ``(time, priority, seq)`` order.

* :class:`HeapEventQueue` -- one binary heap behind a method interface.
* :class:`CalendarEventQueue` -- a two-level calendar (Brown, CACM 1988):
  entries beyond the current window are scattered into fixed-width time
  buckets (plain unsorted lists; push is a C-level ``append``), while a
  small *near* heap holds only the entries of the window being drained.
  When the near heap empties, the earliest future bucket is heapified
  wholesale and becomes the new near heap.  Because the bucket index
  ``int(time / width)`` is a monotone function of time, every near entry
  precedes every future-bucket entry, and ties (same time) meet in the
  same heap where the full tuple comparison breaks them.  It only pays
  off with thousands of entries waiting; the simulator keeps a few dozen.

Both expose ``push(entry)``, ``pop()``, ``peek()`` (``None`` when empty),
an O(1) ``__bool__`` and an exact ``__len__``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, List, Optional, Tuple

#: A scheduled entry: ``(time, priority, seq, ...)``.
Entry = Tuple[float, int, int, object]


class HeapEventQueue:
    """The classic single binary heap."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[Entry] = []

    def push(self, entry: Entry) -> None:
        heappush(self._heap, entry)

    def pop(self) -> Entry:
        return heappop(self._heap)

    def peek(self) -> Optional[Entry]:
        heap = self._heap
        return heap[0] if heap else None

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


#: Default calendar bucket width in simulated seconds.  Wide enough that a
#: bucket collects a few dozen entries (one cheap sort instead of that many
#: heap sifts), narrow enough that the active bucket's insort tail stays
#: short.  Tuned on the standing benchmark scenario.
DEFAULT_BUCKET_WIDTH = 0.005


class CalendarEventQueue:
    """Two-level bucketed calendar with exact ``(time, priority, seq)`` order.

    ``_near`` is a real heap holding every entry whose bucket index is at
    or below ``_hindex`` (the migrated horizon); ``_far`` maps later
    bucket indices to unsorted entry lists, with ``_bucket_heap`` ordering
    the occupied indices.  A push lands in the near heap only when it
    falls inside the already-migrated window (zero-delay triggers at
    ``now``, typically); everything else is an O(1) append.  When the
    near heap drains, the earliest far bucket is heapified wholesale and
    becomes the near heap.

    Entries may be pushed in any time order -- an entry behind the
    horizon simply joins the near heap, which keeps ordering exact.
    """

    __slots__ = (
        "bucket_width", "_inv_width", "_near", "_far", "_bucket_heap",
        "_hindex",
    )

    def __init__(self, bucket_width: float = DEFAULT_BUCKET_WIDTH) -> None:
        if bucket_width <= 0.0:
            raise ValueError(f"bucket_width must be positive, got {bucket_width}")
        self.bucket_width = bucket_width
        self._inv_width = 1.0 / bucket_width
        self._near: List[Entry] = []
        self._far: Dict[int, List[Entry]] = {}
        self._bucket_heap: List[int] = []
        self._hindex = -1

    def push(self, entry: Entry) -> None:
        index = int(entry[0] * self._inv_width)
        if index <= self._hindex:
            heappush(self._near, entry)
        else:
            bucket = self._far.get(index)
            if bucket is None:
                self._far[index] = [entry]
                heappush(self._bucket_heap, index)
            else:
                bucket.append(entry)

    def _advance(self) -> List[Entry]:
        """Migrate the earliest far bucket into the (empty) near heap."""
        index = heappop(self._bucket_heap)
        bucket = self._far.pop(index)
        self._hindex = index
        heapify(bucket)
        self._near = bucket
        return bucket

    def pop(self) -> Entry:
        near = self._near
        if not near:
            if not self._bucket_heap:
                raise IndexError("pop from an empty event queue")
            near = self._advance()
        return heappop(near)

    def peek(self) -> Optional[Entry]:
        near = self._near
        if not near:
            if not self._bucket_heap:
                return None
            near = self._advance()
        return near[0]

    def __bool__(self) -> bool:
        # O(1): an occupied far bucket always has its index in the heap.
        return bool(self._near or self._bucket_heap)

    def __len__(self) -> int:
        # Computed on demand (linear in the occupied buckets): length is
        # for diagnostics only; emptiness checks go through __bool__.
        return len(self._near) + sum(len(b) for b in self._far.values())


def make_queue(impl: str, bucket_width: float = DEFAULT_BUCKET_WIDTH):
    """Build the queue implementation named ``impl`` (``calendar``/``heap``)."""
    if impl == "calendar":
        return CalendarEventQueue(bucket_width)
    if impl == "heap":
        return HeapEventQueue()
    raise ValueError(f"unknown event-queue implementation: {impl!r}")
