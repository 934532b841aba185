"""Unit tests for the CSV trace sink and the time-series CSV writers."""

import csv
import io

from tests.helpers import MSS, make_transfer
from repro.metrics.timeseries import (
    TimeSeries,
    write_multi_timeseries,
    write_timeseries,
)
from repro.obs import records as obsrec
from repro.obs.records import TraceRecord
from repro.obs.sinks import CsvTraceSink, TraceSink
from repro.obs.tracer import tracing


def rec(t, kind="pkt.send", flow=1, **fields):
    return TraceRecord(float(t), kind, flow, fields)


class TestCsvTraceSink:
    def test_header_and_rows(self):
        out = io.StringIO()
        sink = CsvTraceSink(out, field_names=["seq", "size"])
        sink.emit(rec(0.5, seq=0, size=1448))
        sink.emit(rec(1.0, "cc.cwnd", cwnd=28960))  # no seq/size fields
        sink.close()
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0] == ["time", "flow", "kind", "seq", "size"]
        assert rows[1] == ["0.500000000", "1", "pkt.send", "0", "1448"]
        assert rows[2] == ["1.000000000", "1", "cc.cwnd", "", ""]
        assert sink.rows == 2

    def test_satisfies_sink_protocol(self):
        assert isinstance(CsvTraceSink(io.StringIO()), TraceSink)

    def test_owns_stream_when_given_path(self, tmp_path):
        path = tmp_path / "trace.csv"
        sink = CsvTraceSink(path)
        sink.emit(rec(1))
        sink.close()
        content = path.read_text()
        assert content.startswith("time,flow,kind")
        assert sink._stream.closed

    def test_borrowed_stream_is_flushed_not_closed(self):
        out = io.StringIO()
        sink = CsvTraceSink(out)
        sink.emit(rec(1))
        sink.close()
        assert not out.closed  # caller keeps ownership

    def test_wired_into_observability(self):
        out = io.StringIO()
        sink = CsvTraceSink(out, field_names=["cwnd"])
        bench = make_transfer("cubic", size=50 * MSS,
                              obs=tracing(sink)).run()
        assert bench.transfer.completed
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        kinds = {row[2] for row in rows[1:]}
        assert obsrec.PKT_SEND in kinds and obsrec.CC_CWND in kinds
        cwnd_rows = [row for row in rows[1:] if row[2] == obsrec.CC_CWND]
        assert all(row[3] for row in cwnd_rows)  # cwnd column populated


class TestTimeseriesWriters:
    def _series(self, points):
        ts = TimeSeries()
        for t, v in points:
            ts.append(t, v)
        return ts

    def test_write_timeseries(self):
        out = io.StringIO()
        write_timeseries(out, self._series([(0.0, 1.0), (0.5, 2.0)]),
                         value_label="cwnd")
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0] == ["time", "cwnd"]
        assert rows[1] == ["0.000000", "1.0"]

    def test_write_multi_timeseries_grid(self):
        out = io.StringIO()
        write_multi_timeseries(out, {
            "a": self._series([(0.0, 1.0), (1.0, 2.0)]),
            "b": self._series([(0.5, 5.0)]),
        }, interval=0.5)
        rows = list(csv.reader(io.StringIO(out.getvalue())))
        assert rows[0] == ["time", "a", "b"]
        assert rows[1] == ["0.000000", "1.0", ""]  # b not yet started
        assert rows[2][1:] == ["1.0", "5.0"]
