"""Measurement utilities: the per-node metrics registry, commit-path span
tracing, exact latency histograms, bucketed time series, and plain-text
table/chart rendering for the CLI and benchmark harnesses."""

from repro.metrics.histogram import LatencyHistogram
from repro.metrics.registry import Counter, Gauge, MetricsRegistry
from repro.metrics.report import (
    ascii_chart,
    format_table,
    ms,
    spans_table,
    storage_table,
)
from repro.metrics.spans import Span, SpanTracer, tracer_for
from repro.metrics.timeseries import TimeSeries

__all__ = [
    "Counter",
    "Gauge",
    "LatencyHistogram",
    "MetricsRegistry",
    "Span",
    "SpanTracer",
    "TimeSeries",
    "ascii_chart",
    "format_table",
    "ms",
    "spans_table",
    "storage_table",
    "tracer_for",
]
