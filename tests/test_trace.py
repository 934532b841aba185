"""Unit tests for the time-series CSV writers."""

import io

import pytest

from repro.metrics import TimeSeries, write_multi_timeseries, write_timeseries


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
