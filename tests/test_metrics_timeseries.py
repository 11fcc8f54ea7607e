"""Unit tests for TimeSeries (repro.metrics.timeseries), and the span
convention of segmenting one (saturation_episodes)."""

import pytest

from repro.metrics import TimeSeries, saturation_episodes


def make(pairs):
    ts = TimeSeries("t")
    for t, v in pairs:
        ts.append(t, v)
    return ts


def test_append_and_len():
    ts = make([(0.0, 1), (1.0, 2)])
    assert len(ts) == 2
    assert list(ts) == [(0.0, 1), (1.0, 2)]


def test_append_rejects_time_regression():
    ts = make([(1.0, 1)])
    with pytest.raises(ValueError):
        ts.append(0.5, 2)


def test_append_allows_equal_times():
    ts = make([(1.0, 1)])
    ts.append(1.0, 2)
    assert len(ts) == 2


def test_min_max_mean():
    ts = make([(0.0, 3.0), (1.0, 1.0), (2.0, 5.0)])
    assert ts.max() == 5.0
    assert ts.min() == 1.0
    assert ts.mean() == pytest.approx(3.0)


def test_empty_series_stats():
    ts = TimeSeries()
    assert ts.max() == 0.0
    assert ts.mean() == 0.0
    assert ts.value_at(1.0) is None


def test_value_at_stairstep():
    ts = make([(1.0, 10), (2.0, 20), (3.0, 30)])
    assert ts.value_at(0.5) is None
    assert ts.value_at(1.0) == 10
    assert ts.value_at(2.7) == 20
    assert ts.value_at(9.9) == 30


def spans_above(ts, threshold, min_duration=0.0):
    """[start, end) spans where the value exceeds ``threshold``."""
    return [(e.start, e.end) for e in
            saturation_episodes(ts, threshold, min_duration=min_duration)]


def test_intervals_above_basic():
    # a span ends at the first sample back at/below the threshold
    ts = make([(0.0, 0.1), (1.0, 0.99), (2.0, 0.98), (3.0, 0.2), (4.0, 0.97),
               (5.0, 0.1)])
    assert spans_above(ts, 0.95) == [(1.0, 3.0), (4.0, 5.0)]


def test_intervals_above_min_duration_filters_blips():
    ts = make([(0.0, 0.1), (1.0, 0.99), (1.05, 0.1), (2.0, 0.99), (2.5, 0.99),
               (3.0, 0.1)])
    assert spans_above(ts, 0.95, min_duration=0.5) == [(2.0, 3.0)]


def test_intervals_above_open_at_end():
    # a span still open at the end closes at the last sample time
    ts = make([(0.0, 0.1), (1.0, 0.99), (2.0, 0.99)])
    assert spans_above(ts, 0.95) == [(1.0, 2.0)]


def test_slice():
    ts = make([(0.0, 1), (1.0, 2), (2.0, 3), (3.0, 4)])
    sliced = ts.slice(1.0, 3.0)
    assert list(sliced) == [(1.0, 2), (2.0, 3)]


def test_as_arrays():
    ts = make([(0.0, 1), (1.0, 2)])
    times, values = ts.as_arrays()
    assert times.tolist() == [0.0, 1.0]
    assert values.tolist() == [1, 2]
