"""Unit tests for the time-series container and its CSV writers."""

import csv
import io

import pytest
from hypothesis import given, strategies as st

from repro.metrics import TimeSeries, write_multi_timeseries, write_timeseries


def series(pairs, name="s"):
    ts = TimeSeries(name)
    for t, v in pairs:
        ts.append(t, v)
    return ts


class TestAppend:
    def test_monotonic_time_enforced(self):
        ts = series([(0.0, 1.0), (1.0, 2.0)])
        with pytest.raises(ValueError):
            ts.append(0.5, 3.0)

    def test_equal_time_allowed(self):
        ts = series([(1.0, 1.0)])
        ts.append(1.0, 2.0)
        assert len(ts) == 2

    def test_iteration(self):
        pairs = [(0.0, 1.0), (1.0, 2.0)]
        assert list(series(pairs)) == pairs


class TestLookup:
    def test_value_at_step_semantics(self):
        ts = series([(1.0, 10.0), (2.0, 20.0)])
        assert ts.value_at(0.5) is None
        assert ts.value_at(1.0) == 10.0
        assert ts.value_at(1.9) == 10.0
        assert ts.value_at(2.0) == 20.0
        assert ts.value_at(99.0) == 20.0

    def test_extremes(self):
        ts = series([(0.0, 3.0), (1.0, 1.0), (2.0, 7.0)])
        assert ts.max_value() == 7.0
        assert ts.min_value() == 1.0

    def test_empty(self):
        ts = TimeSeries()
        assert ts.empty
        assert ts.value_at(1.0) is None
        assert ts.max_value() is None


class TestRates:
    def test_window_delta(self):
        ts = series([(0.0, 0.0), (1.0, 100.0), (2.0, 300.0)])
        assert ts.window_delta(0.0, 2.0) == 300.0
        assert ts.window_delta(1.0, 2.0) == 200.0

    def test_rate(self):
        ts = series([(0.0, 0.0), (2.0, 500.0)])
        assert ts.rate(0.0, 2.0) == 250.0

    def test_invalid_window(self):
        ts = series([(0.0, 0.0)])
        with pytest.raises(ValueError):
            ts.rate(2.0, 1.0)

    def test_before_first_sample_counts_zero(self):
        ts = series([(5.0, 100.0)])
        assert ts.window_delta(0.0, 10.0) == 100.0


class TestResample:
    def test_fixed_grid(self):
        ts = series([(0.0, 1.0), (0.7, 2.0), (1.5, 3.0)])
        out = ts.resample(0.5)
        assert out.times == [0.0, 0.5, 1.0, 1.5]
        assert out.values == [1.0, 1.0, 2.0, 3.0]

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            series([(0.0, 1.0)]).resample(0.0)

    @given(st.lists(st.tuples(st.floats(0, 100, allow_nan=False),
                              st.floats(-1e6, 1e6, allow_nan=False)),
                    min_size=1, max_size=30))
    def test_value_at_matches_linear_scan(self, pairs):
        pairs.sort(key=lambda p: p[0])
        ts = series(pairs)
        probe = pairs[len(pairs) // 2][0]
        expected = None
        for t, v in pairs:
            if t <= probe:
                expected = v
        assert ts.value_at(probe) == expected


class TestCsv:
    def test_timeseries_roundtrip(self):
        ts = TimeSeries("cwnd")
        ts.append(0.0, 1.0)
        ts.append(1.0, 2.0)
        out = io.StringIO()
        write_timeseries(out, ts, value_label="cwnd")
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "time,cwnd"
        assert len(lines) == 3

    def test_multi_timeseries_grid(self):
        a = TimeSeries("a")
        b = TimeSeries("b")
        a.append(0.0, 1.0)
        a.append(1.0, 2.0)
        b.append(0.5, 10.0)
        out = io.StringIO()
        write_multi_timeseries(out, {"a": a, "b": b}, interval=0.5)
        lines = out.getvalue().strip().splitlines()
        assert lines[0] == "time,a,b"
        # grid: 0.0, 0.5, 1.0
        assert len(lines) == 4

    def test_multi_requires_series(self):
        with pytest.raises(ValueError):
            write_multi_timeseries(io.StringIO(), {}, 0.5)
        a = TimeSeries()
        a.append(0, 1)
        with pytest.raises(ValueError):
            write_multi_timeseries(io.StringIO(), {"a": a}, 0.0)


class TestTimeseriesWriters:
    def test_write_timeseries(self):
        out = io.StringIO()
        write_timeseries(out, series([(0.0, 1.0), (0.5, 2.0)]),
                         value_label="cwnd")
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0] == ["time", "cwnd"]
        assert rows[1] == ["0.000000", "1.0"]

    def test_write_multi_timeseries_grid(self):
        out = io.StringIO()
        write_multi_timeseries(out, {
            "a": series([(0.0, 1.0), (1.0, 2.0)]),
            "b": series([(0.5, 5.0)]),
        }, interval=0.5)
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0] == ["time", "a", "b"]
        assert rows[1] == ["0.000000", "1.0", ""]  # b not yet started
        assert rows[2][1:] == ["1.0", "5.0"]
