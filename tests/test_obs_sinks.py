"""Unit tests for repro.obs.sinks and the TraceRecord encoding."""

import hashlib
import io
import json

import pytest
from hypothesis import given, strategies as st

from repro.obs.records import (ALL_KINDS, CAMPAIGN_SPAN, TraceRecord,
                               parse_kinds)
from repro.obs.runtime import RunTelemetry
from repro.obs.sinks import (
    DigestSink,
    JsonlSink,
    MemorySink,
    RingBufferSink,
    TeeSink,
    TraceSink,
)
from repro.obs.tracer import tracing


def rec(i, kind="pkt.send", flow=1, **fields):
    return TraceRecord(float(i), kind, flow, fields)


# ----------------------------------------------------------------------
# TraceRecord encoding
# ----------------------------------------------------------------------
class TestTraceRecord:
    def test_to_line_is_canonical_json(self):
        line = TraceRecord(1.25, "cc.cwnd", 3, {"cwnd": 14480},
                           eid=7, parent_eid=5).to_line()
        assert line == ('{"cwnd":14480,"eid":7,"flow":3,"kind":"cc.cwnd",'
                        '"peid":5,"t":1.25}')

    def test_provenance_defaults_to_root(self):
        record = TraceRecord(0.0, "pkt.send", 1)
        assert (record.eid, record.parent_eid) == (0, 0)
        assert '"eid":0' in record.to_line() and '"peid":0' in record.to_line()

    def test_provenance_roundtrips_and_compares(self):
        original = TraceRecord(0.5, "pkt.send", 1, {"seq": 0}, eid=12,
                               parent_eid=9)
        parsed = TraceRecord.from_line(original.to_line())
        assert (parsed.eid, parsed.parent_eid) == (12, 9)
        assert parsed == original
        assert parsed != TraceRecord(0.5, "pkt.send", 1, {"seq": 0}, eid=12,
                                     parent_eid=8)

    def test_roundtrip_through_line(self):
        original = TraceRecord(0.5, "pkt.send", 1, {"seq": 0, "retx": False})
        assert TraceRecord.from_line(original.to_line()) == original

    def test_float_repr_exactness(self):
        # json.dumps uses repr-exact floats: parsing back is lossless.
        t = 0.1 + 0.2
        parsed = json.loads(TraceRecord(t, "tcp.rtt", 1, {"rtt": t}).to_line())
        assert parsed["t"] == t and parsed["rtt"] == t

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(0.0, "tcp.rtt", 1, {"rtt": float("nan")}).to_line()

    @pytest.mark.parametrize("name", ["t", "kind", "flow", "eid", "peid"])
    def test_reserved_field_names_rejected(self, name):
        # Merged into the flat line, such a field would overwrite the
        # record's own time or provenance: the line would lie and
        # from_line(line) != record.
        record = TraceRecord(1.5, "tcp.rtt", 1, {"rtt": 0.1, name: 99},
                             eid=3, parent_eid=2)
        with pytest.raises(ValueError, match=f"'{name}' is a reserved"):
            record.to_line()
        with pytest.raises(ValueError, match=f"'{name}' is a reserved"):
            record.to_dict()
        with pytest.raises(ValueError, match=f"'{name}' is a reserved"):
            DigestSink().emit(record)

    def test_campaign_span_roundtrips(self):
        # The one record with a "kind" of its own to carry: it travels
        # as job_kind, and the nested resources dict survives the line.
        sink = MemorySink()
        telemetry = RunTelemetry(obs=tracing(sink))
        telemetry.record_span("ab" * 32, "flow", "google/wired", status="ok",
                              cached=False, attempt=1, worker=7,
                              queue_wait=0.25, exec_time=1.5,
                              resources={"max_rss_kb": 30000, "cpu_s": 1.4})
        (record,) = sink.by_kind(CAMPAIGN_SPAN)
        assert record.fields["job_kind"] == "flow"
        assert "kind" not in record.fields
        assert TraceRecord.from_line(record.to_line()) == record

    def test_equality_ignores_nothing(self):
        a = rec(1, seq=0)
        assert a == rec(1, seq=0)
        assert a != rec(1, seq=1)
        assert a != rec(2, seq=0)

    def test_parse_kinds_validates(self):
        assert parse_kinds("pkt.send, cc.cwnd") == {"pkt.send", "cc.cwnd"}
        with pytest.raises(ValueError, match="unknown trace kind"):
            parse_kinds("pkt.send,bogus.kind")

    def test_all_kinds_are_namespaced(self):
        assert all("." in kind for kind in ALL_KINDS)


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
class TestMemorySink:
    def test_collects_and_filters(self):
        sink = MemorySink()
        sink.emit(rec(1, "pkt.send", flow=1))
        sink.emit(rec(2, "pkt.recv", flow=2))
        sink.emit(rec(3, "pkt.send", flow=2))
        assert len(sink) == 3
        assert [r.time for r in sink.by_kind("pkt.send")] == [1.0, 3.0]
        assert [r.time for r in sink.by_flow(2)] == [2.0, 3.0]
        sink.close()  # no-op, must not raise

    def test_satisfies_protocol(self):
        assert isinstance(MemorySink(), TraceSink)
        assert isinstance(JsonlSink(io.StringIO()), TraceSink)
        assert isinstance(DigestSink(), TraceSink)


class TestRingBufferSink:
    def test_keeps_only_newest(self):
        sink = RingBufferSink(capacity=3)
        for i in range(10):
            sink.emit(rec(i))
        assert len(sink) == 3
        assert [r.time for r in sink.records] == [7.0, 8.0, 9.0]
        assert sink.emitted == 10
        assert sink.dropped == 7

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferSink(0)

    def test_by_kind_works_via_records_property(self):
        sink = RingBufferSink(capacity=2)
        sink.emit(rec(1, "pkt.send"))
        sink.emit(rec(2, "pkt.recv"))
        assert len(sink.by_kind("pkt.recv")) == 1

    def test_exact_wrap_has_no_drops(self):
        # Filling to exactly capacity must not count any drop; the
        # drop counter starts at the capacity+1'th emit.
        sink = RingBufferSink(capacity=4)
        for i in range(4):
            sink.emit(rec(i))
        assert len(sink) == 4 and sink.dropped == 0
        sink.emit(rec(4))
        assert len(sink) == 4 and sink.dropped == 1
        assert [r.time for r in sink.records] == [1.0, 2.0, 3.0, 4.0]

    def test_drain_returns_oldest_first_and_empties(self):
        sink = RingBufferSink(capacity=3)
        for i in range(5):
            sink.emit(rec(i))
        drained = sink.drain()
        assert [r.time for r in drained] == [2.0, 3.0, 4.0]
        assert len(sink) == 0 and sink.records == []
        # lifetime counters survive the drain
        assert sink.emitted == 5
        assert sink.dropped == 2

    def test_drain_does_not_fake_drops(self):
        # Regression: dropped used to be derived as emitted - len, which
        # jumps to `emitted` after a drain empties the buffer.
        sink = RingBufferSink(capacity=8)
        for i in range(3):
            sink.emit(rec(i))
        assert sink.drain() and sink.dropped == 0
        sink.emit(rec(99))
        assert sink.dropped == 0 and len(sink) == 1

    @given(capacity=st.integers(min_value=1, max_value=64),
           n=st.integers(min_value=0, max_value=200),
           drain_at=st.integers(min_value=0, max_value=200))
    def test_ring_invariants_random_capacities(self, capacity, n, drain_at):
        sink = RingBufferSink(capacity=capacity)
        drained = []
        for i in range(n):
            sink.emit(rec(i))
            if i == drain_at:
                drained = sink.drain()
                assert len(sink) == 0
        in_ring = [r.time for r in sink.records]
        # contents: the newest min(pending, capacity) records, in order
        start = drain_at + 1 if drain_at < n else 0
        pending = list(range(start, n)) if drained else list(range(n))
        assert in_ring == [float(i) for i in pending[-capacity:]]
        assert len(sink) == min(len(pending), capacity)
        # conservation: every record offered is in the ring, drained,
        # or counted as dropped
        assert sink.emitted == n
        assert sink.dropped == n - len(sink) - len(drained)


class TestJsonlSink:
    def test_writes_one_line_per_record(self):
        out = io.StringIO()
        sink = JsonlSink(out)
        sink.emit(rec(1, seq=0))
        sink.emit(rec(2, seq=1448))
        sink.close()
        lines = out.getvalue().splitlines()
        assert len(lines) == 2 and sink.lines == 2
        assert json.loads(lines[1])["seq"] == 1448

    def test_path_target_is_lazily_opened(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(str(path))
        assert not path.exists()  # nothing emitted yet
        sink.emit(rec(1))
        sink.close()
        assert path.read_text().count("\n") == 1
        # a trace with no records is an empty file, not a missing one
        # (``repro analyze`` of a filtered-to-nothing trace must work)
        unused = JsonlSink(str(tmp_path / "empty.jsonl"))
        assert not (tmp_path / "empty.jsonl").exists()
        unused.close()
        assert (tmp_path / "empty.jsonl").read_text() == ""
        unused.close()  # idempotent

    def test_emit_after_close_is_a_value_error(self, tmp_path):
        sink = JsonlSink(str(tmp_path / "trace.jsonl"))
        sink.emit(rec(1))
        sink.close()
        with pytest.raises(ValueError, match="emit on a closed JsonlSink"):
            sink.emit(rec(2))
        assert sink.lines == 1
        assert (tmp_path / "trace.jsonl").read_text().count("\n") == 1


class TestDigestSink:
    def test_digest_matches_hashing_the_jsonl_file(self, tmp_path):
        records = [rec(i, seq=i * 1448) for i in range(20)]
        path = tmp_path / "t.jsonl"
        jsonl = JsonlSink(str(path))
        digest = DigestSink()
        for r in records:
            jsonl.emit(r)
            digest.emit(r)
        jsonl.close()
        assert digest.records == 20
        assert digest.digest() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_digest_readable_mid_stream(self):
        sink = DigestSink()
        empty = sink.digest()
        sink.emit(rec(1))
        assert sink.digest() != empty


class TestTeeSink:
    def test_replicates_to_all(self):
        a, b = MemorySink(), DigestSink()
        tee = TeeSink([a, b])
        tee.emit(rec(1))
        tee.emit(rec(2))
        tee.close()
        assert len(a) == 2 and b.records == 2

    def test_requires_at_least_one_sink(self):
        with pytest.raises(ValueError):
            TeeSink([])
