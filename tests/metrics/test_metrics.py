"""Unit tests for histograms, time series, and table rendering."""

import pytest

from repro.metrics import LatencyHistogram, TimeSeries, format_table, ms


class TestLatencyHistogram:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.count == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_mean_and_extremes(self):
        h = LatencyHistogram()
        for v in (1.0, 2.0, 3.0, 4.0):
            h.record(v)
        assert h.mean == 2.5
        assert h.maximum == 4.0

    def test_percentiles_interpolate(self):
        h = LatencyHistogram()
        for v in range(1, 101):
            h.record(float(v))
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 100.0
        assert abs(h.percentile(50) - 50.5) < 1e-9
        assert abs(h.percentile(95) - 95.05) < 1e-9

    def test_unsorted_input_handled(self):
        h = LatencyHistogram()
        for v in (5.0, 1.0, 3.0):
            h.record(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 5.0

    def test_invalid_percentile(self):
        h = LatencyHistogram()
        h.record(1.0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_summary_keys(self):
        h = LatencyHistogram()
        h.record(0.01)
        summary = h.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}


class TestTimeSeries:
    def test_rate_series_fills_gaps(self):
        ts = TimeSeries(1.0)
        ts.record(0.5)
        ts.record(0.7)
        ts.record(2.1)
        assert ts.rate_series() == [(0.0, 2.0), (1.0, 0.0), (2.0, 1.0)]

    def test_mean_series(self):
        ts = TimeSeries(1.0)
        ts.record(0.5, 10.0)
        ts.record(0.7, 20.0)
        ts.record(2.0, 5.0)
        means = ts.mean_series()
        assert means[0] == (0.0, 15.0)
        assert means[1] == (1.0, None)
        assert means[2] == (2.0, 5.0)

    def test_bucket_width_scaling(self):
        ts = TimeSeries(0.5)
        ts.record(0.2)
        ts.record(0.3)
        assert ts.rate_series() == [(0.0, 4.0)]  # 2 events / 0.5 s

    def test_total_count_and_empty(self):
        ts = TimeSeries(1.0)
        assert ts.empty
        ts.record(1.0)
        assert not ts.empty
        assert sum(rate for _t, rate in ts.rate_series()) == 1

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            TimeSeries(0)


class TestFormatTable:
    def test_alignment_and_title(self):
        out = format_table(["a", "bbb"], [(1, 2.5), ("xx", 0.001)], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert lines[1] == "="
        assert "a" in lines[2] and "bbb" in lines[2]
        assert len(lines) == 6

    def test_float_formatting(self):
        out = format_table(["v"], [(123.456,), (1.234,), (0.01234,), (0.0,)])
        assert "123.5" in out
        assert "1.23" in out
        assert "0.0123" in out

    def test_ms_helper(self):
        assert ms(0.25) == 250.0
        assert ms(None) is None
