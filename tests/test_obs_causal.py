"""Unit + golden tests for repro.obs.causal (provenance chain walking)."""

import pytest

from repro.experiments import goldens
from repro.obs.causal import (
    CausalIndex,
    explain_event,
    find_record,
    record_summary,
    render_explanation,
)
from repro.obs.records import TraceRecord
from repro.obs.sinks import MemorySink
from repro.obs.tracer import tracing

from tests.helpers import MSS, make_transfer
from tests.test_integration_loss_patterns import IndexedLoss


def rec(t, kind, flow=1, eid=0, peid=0, **fields):
    return TraceRecord(t, kind, flow, fields, eid, peid)


def simple_chain():
    """send(1) -> recv(2) -> decision(3); plus an unrelated root record."""
    return [
        rec(0.0, "pkt.send", eid=1, peid=0, seq=0),
        rec(0.1, "pkt.recv", eid=2, peid=1, seq=0),
        rec(0.2, "suss.decision", eid=3, peid=2, verdict="accelerate"),
        rec(0.0, "campaign.span", flow=-1, eid=0, peid=0, label="x"),
    ]


class TestCausalIndex:
    def test_records_of_groups_by_eid(self):
        index = CausalIndex([rec(0.0, "pkt.send", eid=5, seq=0),
                             rec(0.0, "cc.cwnd", eid=5, cwnd=10)])
        assert len(index.records_of(5)) == 2
        assert index.records_of(99) == []

    def test_membership_and_eids(self):
        index = CausalIndex(simple_chain())
        assert 2 in index and 99 not in index
        assert index.eids() == [1, 2, 3]  # root (0) excluded

    def test_parent_of(self):
        index = CausalIndex(simple_chain())
        assert index.parent_of(3) == 2
        assert index.parent_of(1) == 0
        assert index.parent_of(42) is None

    def test_children_of(self):
        index = CausalIndex(simple_chain())
        assert index.children_of(1) == [2]
        assert index.children_of(2) == [3]
        assert index.children_of(3) == []

    def test_chain_walks_to_root(self):
        index = CausalIndex(simple_chain())
        assert index.chain(3) == [3, 2, 1]
        assert index.chain(1) == [1]

    def test_chain_of_unknown_eid_is_empty(self):
        assert CausalIndex(simple_chain()).chain(42) == []

    def test_chain_stops_at_missing_parent(self):
        # the middle event's records were filtered out of this trace
        index = CausalIndex([rec(0.0, "pkt.send", eid=1, peid=0),
                             rec(0.2, "suss.decision", eid=3, peid=2)])
        assert index.chain(3) == [3]

    def test_chain_survives_cycles(self):
        # corrupt provenance (a->b->a) must terminate, not loop
        index = CausalIndex([rec(0.0, "pkt.send", eid=1, peid=2),
                             rec(0.1, "pkt.recv", eid=2, peid=1)])
        assert index.chain(1) == [1, 2]

    def test_chain_respects_max_hops(self):
        records = [rec(float(i), "pkt.send", eid=i + 1, peid=i)
                   for i in range(10)]
        index = CausalIndex(records)
        assert len(index.chain(10, max_hops=3)) == 3


class TestExplain:
    def test_structured_shape(self):
        index = CausalIndex(simple_chain())
        info = explain_event(index, 3)
        assert info["target"] == 3 and info["found"] and info["complete"]
        assert [h["eid"] for h in info["chain"]] == [3, 2, 1]
        assert info["chain"][0]["records"][0]["kind"] == "suss.decision"
        assert info["chain"][0]["peid"] == 2

    def test_unknown_event(self):
        info = explain_event(CausalIndex(simple_chain()), 42)
        assert not info["found"] and info["chain"] == []
        assert "no records" in render_explanation(info)

    def test_incomplete_chain_marked(self):
        index = CausalIndex([rec(0.2, "suss.decision", eid=3, peid=2)])
        info = explain_event(index, 3)
        assert not info["complete"]
        assert "truncated" in render_explanation(info)

    def test_render_mentions_every_hop(self):
        text = render_explanation(explain_event(CausalIndex(simple_chain()),
                                                3))
        assert "event 3" in text and "event 2" in text and "event 1" in text
        assert "caused by" in text
        assert "verdict=accelerate" in text

    def test_record_summary_compact(self):
        line = record_summary(rec(0.5, "cc.cwnd", cwnd=14480, flight=0))
        assert line == "cc.cwnd flow=1 cwnd=14480 flight=0"


class TestFindRecord:
    def test_most_recent_at_or_before(self):
        records = simple_chain()
        hit = find_record(records, at=0.15)
        assert hit.kind == "pkt.recv"

    def test_flow_and_kind_filters(self):
        records = simple_chain()
        hit = find_record(records, kinds={"pkt.send"})
        assert hit.kind == "pkt.send"
        assert find_record(records, flow=7) is None

    def test_no_match_before_time(self):
        assert find_record(simple_chain(), at=-1.0) is None


# ----------------------------------------------------------------------
# the acceptance-criterion walk on the committed golden trace
# ----------------------------------------------------------------------
class TestGoldenCausality:
    @pytest.fixture(scope="class")
    def golden_index(self):
        lines = goldens.golden_stream("cubic+suss")
        return CausalIndex([TraceRecord.from_line(line) for line in lines])

    def test_accelerate_decision_chains_to_original_send(self, golden_index):
        """A SUSS accelerate decision must walk back through the clocking
        ACK and the DATA delivery to the event that sent the data."""
        accelerate = next(
            r for r in golden_index.records
            if r.kind == "suss.decision"
            and r.fields.get("verdict") == "accelerate")
        info = explain_event(golden_index, accelerate.eid)
        assert info["complete"], "chain must reach the root context"
        assert len(info["chain"]) >= 3
        kinds_per_hop = [{r["kind"] for r in hop["records"]}
                         for hop in info["chain"]]
        # hop 0: the decision fired while processing the clocking ACK
        assert "suss.decision" in kinds_per_hop[0]
        assert "pkt.recv" in kinds_per_hop[0]
        # some ancestor delivered DATA to the receiver...
        assert any(
            any(r["kind"] == "pkt.recv" and r.get("ptype") == "DATA"
                for r in hop["records"])
            for hop in info["chain"][1:])
        # ...and an earlier ancestor performed the original (non-retx) send
        assert any(
            any(r["kind"] == "pkt.send" and not r.get("retx")
                for r in hop["records"])
            for hop in info["chain"][1:])

    def test_every_golden_eid_chain_terminates(self, golden_index):
        for eid in golden_index.eids():
            chain = golden_index.chain(eid)
            assert chain, f"eid {eid} must be walkable"
            assert golden_index.parent_of(chain[-1]) == 0, (
                f"chain from {eid} must end at the root, "
                f"stopped at {chain[-1]}")

    def test_queued_segment_is_explained_by_its_own_send(self):
        """``repro explain cubic.jsonl.gz --event <arrival of seq 17376>``.

        Segment 17376 waited at the bottleneck behind 14480 and 15928,
        which an earlier ACK had released, and used to be "caused by"
        that earlier event: it inherited the origin of whatever started
        the busy period.  Its parent is the event whose records include
        its own send.
        """
        lines = goldens.golden_stream("cubic")
        index = CausalIndex([TraceRecord.from_line(line) for line in lines])
        arrival = next(r for r in index.records
                       if r.kind == "pkt.recv" and r.fields["ptype"] == "DATA"
                       and r.fields["seq"] == 17376)
        info = explain_event(index, arrival.eid)
        assert info["complete"]
        parent = info["chain"][1]
        sends = [r["seq"] for r in parent["records"]
                 if r["kind"] == "pkt.send"]
        assert 17376 in sends
        assert 14480 not in sends and 15928 not in sends
        # the parent is an ACK arrival at the server that clocked it out
        assert any(r["kind"] == "pkt.recv" and r["ptype"] == "ACK"
                   and r["host"] == "server0" for r in parent["records"])
        text = render_explanation(info)
        assert "seq=17376" in text.split("caused by")[1]



# ----------------------------------------------------------------------
# the RTO timer carries the origin of whoever armed it last
# ----------------------------------------------------------------------
def assert_rtos_cite_their_arming(records):
    """The timer's engine record is scheduled once and then slept on, so
    the event that scheduled it is usually not the one that armed the
    timer last.  A ``tcp.rto`` record must still be caused by the arming
    event -- one that took this flow's ACK or sent one of its segments --
    never by a bare timer hop (which emits nothing and so could not even
    be named) or by the stale scheduler of the record.  Returns the
    ``(tcp.rto record, records of its parent event)`` pairs."""
    index = CausalIndex(records)
    pairs = [(r, index.records_of(r.parent_eid))
             for r in records if r.kind == "tcp.rto"]
    for rto, parent in pairs:
        assert any(r.flow == rto.flow and (
            r.kind == "pkt.send"
            or (r.kind == "pkt.recv" and r.fields["ptype"] == "ACK"))
            for r in parent), (rto.to_line(), [r.to_line() for r in parent])
    return pairs


class TestRtoProvenance:
    @pytest.mark.parametrize("name", sorted(goldens.RECOVERY_RUNS))
    def test_recovery_runs(self, name):
        assert_rtos_cite_their_arming(goldens.capture_records(name))

    @pytest.mark.parametrize("cc", goldens.RECOVERY_CCS)
    @pytest.mark.parametrize("lost", (1, 3, 10))
    def test_tail_loss(self, cc, lost):
        """The last segments vanish: the final ACKs each re-arm the timer
        and the last of them is the one the RTO must cite, ~one RTO of
        silence and at least one early timer fire later."""
        segments = 300
        sink = MemorySink()
        bench = make_transfer(cc=cc, size=segments * MSS, buffer_bdp=3.0,
                              obs=tracing(sink))
        # the forward bottleneck carries the SYN, then the segments
        bench.net.bottleneck_fwd.loss = IndexedLoss(
            range(segments - lost + 1, segments + 1))
        bench.run()
        assert bench.transfer.completed
        (rto, parent), = assert_rtos_cite_their_arming(sink.records)
        last_ack = max(r.time for r in sink.records
                       if r.kind == "pkt.recv" and r.time < rto.time
                       and r.fields["host"] == "server0")
        assert {r.time for r in parent} == {last_ack}
