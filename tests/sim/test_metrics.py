"""Unit tests for metrics aggregation."""

import pytest

from repro.sim.metrics import LatencySeries, summarize, throughput_mb_per_s


def test_latency_series_stats():
    series = LatencySeries("test")
    series.extend([1.0, 2.0, 3.0, 4.0])
    assert series.mean == 2.5
    assert series.minimum == 1.0
    assert series.maximum == 4.0
    assert len(series) == 4


def test_percentiles_interpolate():
    series = LatencySeries()
    series.extend([0.0, 10.0])
    assert series.percentile(50) == 5.0
    assert series.percentile(0) == 0.0
    assert series.percentile(100) == 10.0


def test_percentile_out_of_range():
    series = LatencySeries()
    series.add(1.0)
    with pytest.raises(ValueError):
        series.percentile(101)


def test_empty_series_is_zeroes():
    series = LatencySeries()
    assert series.mean == 0.0
    assert series.percentile(99) == 0.0
    assert series.summary()["count"] == 0.0


def test_drop_warmup():
    series = LatencySeries()
    series.extend([100.0, 100.0, 1.0, 1.0])
    trimmed = series.drop_warmup(2)
    assert trimmed.mean == 1.0
    assert len(series) == 4  # original untouched


def test_summary_keys():
    summary = summarize([1.0, 2.0, 3.0])
    assert set(summary) == {
        "count", "mean", "stddev", "p50", "p95", "p99", "min", "max",
    }


def test_stddev_sample_formula():
    series = LatencySeries()
    series.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
    # Known fixture: population stddev 2.0, sample (n-1) ~2.138.
    assert series.stddev == pytest.approx(2.138, abs=0.001)
    assert series.summary()["stddev"] == series.stddev


def test_stddev_degenerate_cases():
    series = LatencySeries()
    assert series.stddev == 0.0
    series.add(42.0)
    assert series.stddev == 0.0  # fewer than two samples
    series.add(42.0)
    assert series.stddev == 0.0  # identical samples


def test_histogram_buckets():
    series = LatencySeries()
    series.extend([0.5, 1.0, 1.5, 2.0, 10.0])
    # Bounds are inclusive upper edges; the extra bucket is overflow.
    assert series.histogram([1.0, 2.0, 5.0]) == [2, 2, 0, 1]
    assert series.histogram([0.1]) == [0, 5]


def test_histogram_rejects_unsorted_bounds():
    series = LatencySeries()
    series.add(1.0)
    with pytest.raises(ValueError):
        series.histogram([2.0, 1.0])
    with pytest.raises(ValueError):
        series.histogram([1.0, 1.0])


def test_throughput_identity():
    # 100 KB in 1.2 ms -> ~83 MB/s (the paper's Table II fixture).
    assert throughput_mb_per_s(100_000, 1.2) == pytest.approx(83.3, abs=0.1)


def test_throughput_zero_time():
    assert throughput_mb_per_s(1000, 0.0) == 0.0
