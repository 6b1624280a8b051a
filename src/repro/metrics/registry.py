"""Per-node metrics registry: counters and gauges.

Every simulated component (transaction manager, region server, clients,
network, recovery manager, ...) owns one :class:`MetricsRegistry`.  The
registry is the *single* source of truth for that component's statistics:
hot paths hold direct references to :class:`Counter` objects and call
``inc()``; everything else reads the uniform :meth:`MetricsRegistry.snapshot`
shape.  (The old dict-like counter-view shim is gone -- see
docs/OBSERVABILITY.md.)

Design constraints:

* **Determinism.**  Snapshots are plain dicts with deterministically
  ordered keys (sorted at snapshot time) and values derived only from
  simulation events, never from wall-clock time or hashing order.  Two
  same-seed runs therefore produce byte-identical JSON exports.
* **Pure stdlib.**  No third-party metrics client.  Latency
  distributions live in the span tracer (:mod:`repro.metrics.spans`),
  not here.

A metric name plus an optional, sorted label tuple identifies one time
series, mirroring the familiar Prometheus data model::

    reg = MetricsRegistry("tm", "tm0")
    reg.counter("commits").inc()
    reg.counter("flush_fragments", region="r3").inc(2)
    reg.snapshot()   # -> {"component": "tm", "addr": "tm0", ...}
"""

from __future__ import annotations

from typing import Dict, Tuple

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Normalise a label dict into a hashable, deterministically ordered key."""
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _series_name(name: str, labels: LabelKey) -> str:
    """Flatten ``name`` + labels into one snapshot key, e.g. ``a{r=1}``."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """Monotonic counter (with an escape hatch for legacy ``stats[k] = v``)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self._value += amount

    def set(self, value: int) -> None:
        """Set an absolute value (legacy-shim support only)."""
        self._value = value

    @property
    def value(self) -> int:
        """Current count."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({_series_name(self.name, self.labels)}={self._value})"


class Gauge:
    """A value that can go up and down (queue depths, open regions, ...)."""

    __slots__ = ("name", "labels", "_value")

    def __init__(self, name: str, labels: LabelKey = ()) -> None:
        self.name = name
        self.labels = labels
        self._value = 0.0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self._value = value

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({_series_name(self.name, self.labels)}={self._value})"


class MetricsRegistry:
    """Counters and gauges for one simulated component.

    ``component`` names the component *kind* (``"tm"``, ``"regionserver"``,
    ``"txn_client"``, ...); ``addr`` is the node address or instance name.
    Both are echoed in :meth:`snapshot` so folded cluster-wide views stay
    self-describing.
    """

    def __init__(self, component: str, addr: str = "") -> None:
        self.component = component
        self.addr = addr
        self._counters: Dict[Tuple[str, LabelKey], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelKey], Gauge] = {}

    # -- metric accessors -------------------------------------------------

    def counter(self, name: str, **labels: object) -> Counter:
        """Get or create the counter ``name`` with the given labels."""
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            counter = self._counters[key] = Counter(name, key[1])
        return counter

    def gauge(self, name: str, **labels: object) -> Gauge:
        """Get or create the gauge ``name`` with the given labels."""
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            gauge = self._gauges[key] = Gauge(name, key[1])
        return gauge

    def counters(self, *names: str) -> Tuple[Counter, ...]:
        """Materialise (and return) unlabelled counters for hot paths.

        Components grab their counters once at construction time and call
        ``inc()`` on the returned objects directly -- no per-increment
        registry lookup on the hot path.
        """
        return tuple(self.counter(name) for name in names)

    # -- export -----------------------------------------------------------

    def snapshot(self) -> dict:
        """One deterministic dict with every metric this registry holds.

        Shape (the *uniform snapshot shape* every component shares)::

            {"component": ..., "addr": ...,
             "counters":   {series_name: int},
             "gauges":     {series_name: float}}
        """
        counters = {
            _series_name(name, labels): c.value
            for (name, labels), c in self._counters.items()
        }
        gauges = {
            _series_name(name, labels): g.value
            for (name, labels), g in self._gauges.items()
        }
        return {
            "component": self.component,
            "addr": self.addr,
            "counters": {k: counters[k] for k in sorted(counters)},
            "gauges": {k: gauges[k] for k in sorted(gauges)},
        }

