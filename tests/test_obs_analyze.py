"""Tests for repro.obs.analyze: timelines, phases, classification,
anomaly detectors, whole-trace reports, and the end-to-end
genuine-vs-spurious acceptance runs."""

import gzip
import io
import json

import pytest

from tests.helpers import MSS, make_transfer
from repro.obs import records as obsrec
from repro.obs.analyze import (
    ALL_CLASSES,
    ALL_PHASES,
    CwndCollapseDetector,
    Finding,
    FlowTimeline,
    PacingStallDetector,
    RtoSpikeDetector,
    SussAbortDetector,
    analyze_records,
    build_timelines,
    classify_retransmissions,
    default_detectors,
    load_trace,
    phase_at,
    segment_phases,
    tally,
)
from repro.obs.records import TraceRecord
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Observability, Tracer


def rec(t, kind, flow=1, eid=0, peid=0, **fields):
    return TraceRecord(t, kind, flow, fields, eid, peid)


def make_timeline(records):
    tl = FlowTimeline(1)
    for record in records:
        tl.add(record)
    return tl


# ----------------------------------------------------------------------
# timelines
# ----------------------------------------------------------------------
class TestFlowTimeline:
    def test_routes_records_into_typed_tracks(self):
        tl = make_timeline([
            rec(0.0, obsrec.PKT_SEND, seq=0, size=1448, retx=False),
            rec(0.1, obsrec.PKT_RECV, ptype="DATA", seq=0, size=1448),
            rec(0.2, obsrec.PKT_RECV, ptype="ACK", seq=0, size=0),
            rec(0.3, obsrec.PKT_DROP, reason="queue_full", seq=1448),
            rec(0.4, obsrec.CC_CWND, cwnd=14480, ssthresh=10**9, flight=1448),
            rec(0.5, obsrec.TCP_RTT, rtt=0.1),
            rec(0.6, obsrec.TCP_RTO, backoff=2.0),
            rec(0.7, obsrec.TCP_RECOVERY, enter=True, point=2896),
            rec(0.8, obsrec.CC_SS_EXIT, cwnd=20000, reason="hystart"),
            rec(0.9, obsrec.SUSS_DECISION, round=2, growth=3,
                verdict="accelerate"),
            rec(1.0, obsrec.SUSS_PLAN, target=50000, rate=1e6, guard=0.05),
            rec(1.1, obsrec.SUSS_ABORT, cwnd=30000, target=50000),
            rec(1.2, obsrec.TCP_DELIVERED, delivered=1448),
        ])
        assert len(tl.sends) == 1 and tl.sends[0].seq == 0
        assert len(tl.arrivals) == 2 and len(tl.data_arrivals) == 1
        assert tl.drops[0].reason == "queue_full"
        assert tl.cwnd[0].cwnd == 14480
        assert tl.rtt[0].rtt == 0.1
        assert tl.rtos[0].backoff == 2.0
        assert tl.recovery[0].enter
        assert tl.ss_exits[0].reason == "hystart"
        assert tl.suss_decisions[0].verdict == "accelerate"
        assert tl.suss_plans[0].target == 50000
        assert tl.suss_aborts[0].cwnd == 30000
        assert tl.bytes_delivered == 1448
        assert tl.record_count == 13
        assert (tl.first_time, tl.last_time) == (0.0, 1.2)
        assert tl.duration == pytest.approx(1.2)

    def test_derived_views(self):
        tl = make_timeline([
            rec(0.0, obsrec.PKT_SEND, seq=0, size=1448, retx=False),
            rec(0.1, obsrec.PKT_SEND, seq=1448, size=1000, retx=False),
            rec(0.2, obsrec.PKT_SEND, seq=0, size=1448, retx=True),
            rec(0.3, obsrec.TCP_DELIVERED, delivered=2448),
        ])
        assert tl.bytes_sent == 1448 + 1000 + 1448
        assert [s.seq for s in tl.retransmits] == [0]
        assert tl.mss == 1448
        assert set(tl.sends_of_seq()) == {0, 1448}
        assert len(tl.sends_of_seq()[0]) == 2
        assert tl.goodput() == pytest.approx(2448 / 0.3)

    def test_empty_timeline(self):
        tl = FlowTimeline(1)
        assert tl.duration == 0.0 and tl.goodput() == 0.0
        assert tl.mss == 0 and tl.max_cwnd == 0

    def test_unknown_kind_still_counts(self):
        tl = make_timeline([rec(0.5, "campaign.span", label="x")])
        assert tl.record_count == 1 and tl.first_time == 0.5

    def test_build_timelines_splits_flows_and_unattributed(self):
        timelines, unattributed = build_timelines([
            rec(0.0, obsrec.PKT_SEND, flow=1, seq=0, size=1448),
            rec(0.1, obsrec.PKT_SEND, flow=2, seq=0, size=1448),
            rec(0.2, obsrec.PKT_DROP, flow=-1, reason="aqm", count=3),
        ])
        assert set(timelines) == {1, 2}
        assert timelines[1].flow == 1 and len(timelines[1].sends) == 1
        assert len(unattributed) == 1 and unattributed[0].kind == "pkt.drop"


# ----------------------------------------------------------------------
# phase segmentation
# ----------------------------------------------------------------------
class TestPhases:
    def test_no_transitions_is_all_slow_start(self):
        tl = make_timeline([rec(0.0, obsrec.PKT_SEND, seq=0, size=1448),
                            rec(2.0, obsrec.PKT_SEND, seq=1448, size=1448)])
        segments = segment_phases(tl)
        assert segments == [(0.0, 2.0, "slow_start")]

    def test_empty_timeline_has_no_segments(self):
        assert segment_phases(FlowTimeline(1)) == []

    def test_full_lifecycle(self):
        tl = make_timeline([
            rec(0.0, obsrec.PKT_SEND, seq=0, size=1448),
            rec(1.0, obsrec.SUSS_PLAN, target=50000, rate=1e6, guard=0.05),
            rec(2.0, obsrec.SUSS_ABORT, cwnd=30000, target=50000),
            rec(3.0, obsrec.SUSS_PLAN, target=60000, rate=1e6, guard=0.05),
            rec(4.0, obsrec.CC_SS_EXIT, cwnd=60000, reason="hystart"),
            rec(5.0, obsrec.TCP_RECOVERY, enter=True, point=100000),
            rec(6.0, obsrec.TCP_RECOVERY, enter=False, point=100000),
            rec(7.0, obsrec.TCP_RTO, backoff=1.0),
            rec(8.0, obsrec.PKT_SEND, seq=0, size=1448, retx=True),
        ])
        assert [(s.phase, s.start, s.end) for s in segment_phases(tl)] == [
            ("slow_start", 0.0, 1.0),
            ("suss_accelerated", 1.0, 2.0),
            ("slow_start", 2.0, 3.0),
            ("suss_accelerated", 3.0, 4.0),
            ("congestion_avoidance", 4.0, 5.0),
            ("recovery", 5.0, 6.0),
            ("congestion_avoidance", 6.0, 7.0),
            ("slow_start", 7.0, 8.0),
        ]

    def test_segments_cover_span_contiguously(self):
        tl = make_timeline([
            rec(0.0, obsrec.PKT_SEND, seq=0, size=1448),
            rec(0.4, obsrec.SUSS_PLAN, target=1, rate=1.0, guard=0.0),
            rec(0.9, obsrec.CC_SS_EXIT, cwnd=1, reason="loss"),
            rec(1.5, obsrec.PKT_SEND, seq=1448, size=1448),
        ])
        segments = segment_phases(tl)
        assert segments[0].start == tl.first_time
        assert segments[-1].end == tl.last_time
        for a, b in zip(segments, segments[1:]):
            assert a.end == b.start
        assert all(s.phase in ALL_PHASES for s in segments)

    def test_phase_at_lookup_and_clamping(self):
        tl = make_timeline([
            rec(0.0, obsrec.PKT_SEND, seq=0, size=1448),
            rec(1.0, obsrec.CC_SS_EXIT, cwnd=1, reason="hystart"),
            rec(2.0, obsrec.PKT_SEND, seq=1448, size=1448),
        ])
        segments = segment_phases(tl)
        assert phase_at(segments, 0.5) == "slow_start"
        assert phase_at(segments, 1.5) == "congestion_avoidance"
        assert phase_at(segments, 99.0) == "congestion_avoidance"  # clamp up
        assert phase_at(segments, -1.0) == "slow_start"            # clamp down
        assert phase_at([], 0.0) == "slow_start"


# ----------------------------------------------------------------------
# retransmission classification
# ----------------------------------------------------------------------
class TestClassify:
    def classify(self, records):
        return classify_retransmissions(make_timeline(records))

    def test_genuine_when_attributed_drop_in_window(self):
        (c,) = self.classify([
            rec(0.00, obsrec.PKT_SEND, seq=100, size=1448, retx=False),
            rec(0.05, obsrec.PKT_DROP, reason="random_loss", seq=100),
            rec(0.10, obsrec.PKT_SEND, seq=100, size=1448, retx=True),
        ])
        assert c.cause == "genuine" and c.seq == 100 and c.prev_t == 0.0

    def test_spurious_when_copy_arrived_before_resend(self):
        (c,) = self.classify([
            rec(0.00, obsrec.PKT_SEND, seq=200, size=1448, retx=False),
            rec(0.05, obsrec.PKT_RECV, ptype="DATA", seq=200, size=1448),
            rec(0.10, obsrec.PKT_SEND, seq=200, size=1448, retx=True),
        ])
        assert c.cause == "spurious"

    def test_spurious_when_every_copy_eventually_arrived(self):
        # reordering: the original arrives AFTER the resend was sent
        (c,) = self.classify([
            rec(0.00, obsrec.PKT_SEND, seq=500, size=1448, retx=False),
            rec(0.10, obsrec.PKT_SEND, seq=500, size=1448, retx=True),
            rec(0.15, obsrec.PKT_RECV, ptype="DATA", seq=500, size=1448),
            rec(0.20, obsrec.PKT_RECV, ptype="DATA", seq=500, size=1448),
        ])
        assert c.cause == "spurious"

    def test_rto_resend_identified_by_shared_event(self):
        # provenance: tcp.rto and the go-back-N resend share one eid,
        # and this wins even over a drop in the window
        (c,) = self.classify([
            rec(0.00, obsrec.PKT_SEND, seq=300, size=1448, retx=False,
                eid=10),
            rec(0.05, obsrec.PKT_DROP, reason="random_loss", seq=300, eid=12),
            rec(0.20, obsrec.TCP_RTO, backoff=1.0, eid=55),
            rec(0.20, obsrec.PKT_SEND, seq=300, size=1448, retx=True, eid=55),
        ])
        assert c.cause == "rto" and c.eid == 55

    def test_unconfirmed_without_evidence(self):
        # e.g. an AQM head drop, recorded only as an unattributed count
        (c,) = self.classify([
            rec(0.00, obsrec.PKT_SEND, seq=400, size=1448, retx=False),
            rec(0.30, obsrec.PKT_SEND, seq=400, size=1448, retx=True),
        ])
        assert c.cause == "unconfirmed"

    def test_multiple_resends_use_previous_transmission_window(self):
        # second resend's window starts at the first resend, whose copy
        # was dropped too -> both genuine
        results = self.classify([
            rec(0.00, obsrec.PKT_SEND, seq=100, size=1448, retx=False),
            rec(0.05, obsrec.PKT_DROP, reason="random_loss", seq=100),
            rec(0.10, obsrec.PKT_SEND, seq=100, size=1448, retx=True),
            rec(0.15, obsrec.PKT_DROP, reason="random_loss", seq=100),
            rec(0.20, obsrec.PKT_SEND, seq=100, size=1448, retx=True),
        ])
        assert [c.cause for c in results] == ["genuine", "genuine"]
        assert results[1].prev_t == 0.10

    def test_tally_zero_fills_every_class(self):
        counts = tally([])
        assert counts == {cls: 0 for cls in ALL_CLASSES}
        counts = tally(self.classify([
            rec(0.00, obsrec.PKT_SEND, seq=1, size=1448, retx=False),
            rec(0.05, obsrec.PKT_DROP, reason="random_loss", seq=1),
            rec(0.10, obsrec.PKT_SEND, seq=1, size=1448, retx=True),
        ]))
        assert counts["genuine"] == 1 and counts["spurious"] == 0


# ----------------------------------------------------------------------
# anomaly detectors
# ----------------------------------------------------------------------
class TestCwndCollapseDetector:
    def test_flags_unjustified_collapse(self):
        tl = make_timeline([
            rec(0.0, obsrec.CC_CWND, cwnd=10000, ssthresh=50000, flight=0),
            rec(1.0, obsrec.CC_CWND, cwnd=4000, ssthresh=50000, flight=0),
        ])
        (finding,) = CwndCollapseDetector().detect(tl)
        assert finding.severity == "error"
        assert finding.data["cwnd_before"] == 10000

    def test_loss_between_samples_justifies_collapse(self):
        tl = make_timeline([
            rec(0.0, obsrec.CC_CWND, cwnd=10000, ssthresh=50000, flight=0),
            rec(0.5, obsrec.PKT_DROP, reason="queue_full", seq=0),
            rec(1.0, obsrec.CC_CWND, cwnd=4000, ssthresh=50000, flight=0),
        ])
        assert CwndCollapseDetector().detect(tl) == []

    def test_model_based_cc_with_infinite_ssthresh_exempt(self):
        # BBR legitimately shrinks cwnd (drain, ProbeRTT) with no loss
        inf = CwndCollapseDetector.INFINITE_SSTHRESH
        tl = make_timeline([
            rec(0.0, obsrec.CC_CWND, cwnd=10000, ssthresh=inf, flight=0),
            rec(1.0, obsrec.CC_CWND, cwnd=4000, ssthresh=inf, flight=0),
        ])
        assert CwndCollapseDetector().detect(tl) == []

    def test_mild_reduction_not_flagged(self):
        tl = make_timeline([
            rec(0.0, obsrec.CC_CWND, cwnd=10000, ssthresh=50000, flight=0),
            rec(1.0, obsrec.CC_CWND, cwnd=7000, ssthresh=50000, flight=0),
        ])
        assert CwndCollapseDetector().detect(tl) == []


class TestRtoSpikeDetector:
    def test_backoff_spike_flagged(self):
        tl = make_timeline([rec(1.0, obsrec.TCP_RTO, backoff=4.0)])
        (finding,) = RtoSpikeDetector().detect(tl)
        assert finding.severity == "warning" and "x4" in finding.message

    def test_pile_up_flagged(self):
        tl = make_timeline([rec(float(i), obsrec.TCP_RTO, backoff=1.0)
                            for i in range(3)])
        (finding,) = RtoSpikeDetector().detect(tl)
        assert "3 RTOs" in finding.message

    def test_single_mild_rto_not_flagged(self):
        tl = make_timeline([rec(1.0, obsrec.TCP_RTO, backoff=1.0)])
        assert RtoSpikeDetector().detect(tl) == []


class TestSussAbortDetector:
    def test_large_shortfall_warns(self):
        tl = make_timeline([rec(1.0, obsrec.SUSS_ABORT, cwnd=40,
                                target=100)])
        (finding,) = SussAbortDetector().detect(tl)
        assert finding.severity == "warning"
        assert finding.data["shortfall"] == 60

    def test_small_shortfall_is_informational(self):
        tl = make_timeline([rec(1.0, obsrec.SUSS_ABORT, cwnd=90,
                                target=100)])
        (finding,) = SussAbortDetector().detect(tl)
        assert finding.severity == "info"


class TestPacingStallDetector:
    PLAN = {"target": 50000, "rate": 1_000_000.0, "guard": 0.05}

    def test_flags_gap_with_window_headroom(self):
        # rate 1 MB/s, mss 1000 -> expected step 1 ms; a 47 ms gap with
        # ample cwnd headroom is a stall
        tl = make_timeline([
            rec(0.000, obsrec.SUSS_PLAN, **self.PLAN),
            rec(0.000, obsrec.CC_CWND, cwnd=100000, ssthresh=10**9,
                flight=0),
            rec(0.001, obsrec.PKT_SEND, seq=0, size=1000, retx=False),
            rec(0.002, obsrec.PKT_SEND, seq=1000, size=1000, retx=False),
            rec(0.003, obsrec.PKT_SEND, seq=2000, size=1000, retx=False),
            rec(0.050, obsrec.PKT_SEND, seq=3000, size=1000, retx=False),
        ])
        (finding,) = PacingStallDetector().detect(tl)
        assert finding.severity == "warning"
        assert finding.data["gap"] == pytest.approx(0.047)

    def test_window_limited_gap_not_flagged(self):
        # same gap, but the cwnd sample shows no room for another
        # segment: SUSS paces cwnd growth, sends still wait for window
        tl = make_timeline([
            rec(0.000, obsrec.SUSS_PLAN, **self.PLAN),
            rec(0.001, obsrec.PKT_SEND, seq=0, size=1000, retx=False),
            rec(0.002, obsrec.PKT_SEND, seq=1000, size=1000, retx=False),
            rec(0.003, obsrec.PKT_SEND, seq=2000, size=1000, retx=False),
            rec(0.003, obsrec.CC_CWND, cwnd=3500, ssthresh=10**9,
                flight=3000),
            rec(0.050, obsrec.PKT_SEND, seq=3000, size=1000, retx=False),
        ])
        assert PacingStallDetector().detect(tl) == []

    def test_gap_after_plan_boundary_not_attributed_to_plan(self):
        # the abort ends the plan; the post-abort gap is not a stall
        tl = make_timeline([
            rec(0.000, obsrec.SUSS_PLAN, **self.PLAN),
            rec(0.000, obsrec.CC_CWND, cwnd=100000, ssthresh=10**9,
                flight=0),
            rec(0.001, obsrec.PKT_SEND, seq=0, size=1000, retx=False),
            rec(0.002, obsrec.SUSS_ABORT, cwnd=2000, target=50000),
            rec(0.100, obsrec.PKT_SEND, seq=1000, size=1000, retx=False),
        ])
        assert PacingStallDetector().detect(tl) == []

    def test_no_sends_or_no_plan_is_silent(self):
        assert PacingStallDetector().detect(FlowTimeline(1)) == []
        tl = make_timeline([rec(0.0, obsrec.SUSS_PLAN, **self.PLAN)])
        assert PacingStallDetector().detect(tl) == []


class TestDetectorProtocol:
    def test_default_detectors_all_conform(self):
        for detector in default_detectors():
            assert isinstance(detector.name, str)
            assert detector.detect(FlowTimeline(1)) == []

    def test_custom_detector_pluggable(self):
        class Always:
            name = "always"

            def detect(self, timeline):
                return [Finding("always", "info", timeline.flow, 0.0, "hi")]

        records = [rec(0.0, obsrec.PKT_SEND, seq=0, size=1448)]
        analysis = analyze_records(records, detectors=[Always()])
        assert [f.detector for f in analysis.findings] == ["always"]

    def test_finding_rejects_unknown_severity(self):
        with pytest.raises(ValueError, match="unknown severity"):
            Finding("d", "fatal", 1, 0.0, "boom")


# ----------------------------------------------------------------------
# whole-trace analysis + loading
# ----------------------------------------------------------------------
class TestAnalyzeRecords:
    RECORDS = [
        rec(0.00, obsrec.PKT_SEND, seq=0, size=1448, retx=False),
        rec(0.05, obsrec.PKT_DROP, reason="random_loss", seq=0),
        rec(0.10, obsrec.PKT_SEND, seq=0, size=1448, retx=True),
        rec(0.15, obsrec.PKT_RECV, ptype="DATA", seq=0, size=1448),
        rec(0.20, obsrec.TCP_DELIVERED, delivered=1448),
        rec(0.25, obsrec.PKT_DROP, flow=-1, reason="aqm", count=2),
    ]

    def test_to_dict_shape_and_json_serialisable(self):
        analysis = analyze_records(self.RECORDS)
        d = analysis.to_dict()
        json.dumps(d)  # must not raise
        assert d["records"] == 6
        assert d["unattributed_records"] == 1
        assert d["unattributed_aqm_drops"] == 2
        flow = d["flows"]["1"]
        assert flow["summary"]["retransmissions"]["genuine"] == 1
        assert flow["summary"]["bytes_delivered"] == 1448
        assert flow["phases"][0]["phase"] == "slow_start"
        assert flow["retransmissions"][0]["cause"] == "genuine"

    def test_render_text_narrative(self):
        text = analyze_records(self.RECORDS).render_text()
        assert "flow 1" in text
        assert "1 genuine" in text
        assert "findings: none" in text

    def test_empty_stream(self):
        analysis = analyze_records([])
        assert analysis.to_dict()["flows"] == {}
        assert "no flow-attributed activity" in analysis.render_text()

    def test_findings_sorted_by_time_then_flow(self):
        class Fixed:
            name = "fixed"

            def detect(self, timeline):
                return [Finding("fixed", "info", timeline.flow,
                                1.0 - timeline.flow * 0.1, "x")]

        records = [rec(0.0, obsrec.PKT_SEND, flow=f, seq=0, size=1)
                   for f in (1, 2)]
        analysis = analyze_records(records, detectors=[Fixed()])
        assert [f.flow for f in analysis.findings] == [2, 1]


class TestLoadTrace:
    LINES = [rec(0.0, obsrec.PKT_SEND, seq=0, size=1448, eid=1).to_line(),
             rec(0.1, obsrec.PKT_RECV, ptype="DATA", seq=0, size=1448,
                 eid=2, peid=1).to_line()]

    def test_plain_jsonl_path(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text("\n".join(self.LINES) + "\n")
        records = load_trace(str(path))
        assert len(records) == 2
        assert (records[1].eid, records[1].parent_eid) == (2, 1)

    def test_gzip_path(self, tmp_path):
        path = tmp_path / "t.jsonl.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("\n".join(self.LINES) + "\n")
        assert load_trace(str(path)) == load_trace(
            io.StringIO("\n".join(self.LINES)))

    def test_blank_lines_skipped(self):
        stream = io.StringIO(self.LINES[0] + "\n\n" + self.LINES[1] + "\n")
        assert len(load_trace(stream)) == 2


# ----------------------------------------------------------------------
# end-to-end acceptance: genuine vs spurious on live simulations
# ----------------------------------------------------------------------
class IndexedLoss:
    """Drops exactly the i-th, j-th, ... packets crossing the link."""

    def __init__(self, drop_indices):
        self.drop_indices = set(drop_indices)
        self.count = 0

    def drops(self) -> bool:
        index = self.count
        self.count += 1
        return index in self.drop_indices


def traced_transfer(**kwargs):
    sink = MemorySink()
    obs = Observability(tracer=Tracer(sink))
    bench = make_transfer(obs=obs, **kwargs)
    return bench, obs, sink


class TestIntegrationClassification:
    def test_real_loss_classified_genuine(self):
        bench, obs, sink = traced_transfer(cc="cubic", size=200 * MSS)
        bench.net.bottleneck_fwd.loss = IndexedLoss({30})
        bench.run(until=400.0)
        obs.close()
        assert bench.transfer.completed
        analysis = analyze_records(sink.records)
        counts = tally(analysis.flows[1].retransmissions)
        assert counts["genuine"] >= 1
        assert counts["spurious"] == 0

    def test_reordered_delivery_classified_spurious(self):
        # Defer one mid-flow DATA packet by ~60 ms (more than enough for
        # three dupacks to trigger fast retransmit at RTT 100 ms) so
        # every transmitted copy of that sequence eventually arrives:
        # the resend was spurious, and with zero drops in the trace it
        # cannot be misread as genuine.
        bench, obs, sink = traced_transfer(cc="cubic", size=200 * MSS)
        client = bench.net.clients[0]
        original_receive = client.receive
        state = {"data_seen": 0, "deferred": False}

        def reordering_receive(packet):
            if packet.kind.name == "DATA" and not state["deferred"]:
                state["data_seen"] += 1
                if state["data_seen"] == 40:
                    state["deferred"] = True
                    bench.sim.schedule(0.06, original_receive, packet)
                    return
            original_receive(packet)

        client.receive = reordering_receive
        bench.run(until=400.0)
        obs.close()
        assert bench.transfer.completed and state["deferred"]
        analysis = analyze_records(sink.records)
        counts = tally(analysis.flows[1].retransmissions)
        assert counts["spurious"] >= 1
        assert counts["genuine"] == 0

    def test_clean_suss_run_yields_no_warnings(self):
        # A healthy cubic+suss download must analyze clean: correct
        # phases, no retransmissions, no warning/error findings.
        bench, obs, sink = traced_transfer(cc="cubic+suss", size=300 * MSS)
        bench.run(until=400.0)
        obs.close()
        assert bench.transfer.completed
        analysis = analyze_records(sink.records)
        report = analysis.flows[1]
        assert sum(tally(report.retransmissions).values()) == 0
        assert [f for f in report.findings
                if f.severity in ("warning", "error")] == []
        phases = {p.phase for p in report.phases}
        assert "suss_accelerated" in phases
