"""Unit tests for the TCP receiver: ACK generation, reassembly, SACK."""

from repro.net import Host, Packet, PacketKind
from repro.sim import Simulator
from repro.tcp import TcpReceiver

from tests.helpers import Wire


def make_receiver(delayed_ack=False):
    sim = Simulator()
    host = Host("client")
    wire = Wire(host)
    rcv = TcpReceiver(sim, host, peer="server", flow_id=1,
                      delayed_ack=delayed_ack)
    return sim, rcv, wire


def data(seq, size=1000, retransmit=False, sent_time=0.0):
    return Packet(flow_id=1, src="server", dst="client",
                  kind=PacketKind.DATA, seq=seq, payload=size,
                  retransmit=retransmit, sent_time=sent_time)


class TestInOrder:
    def test_each_segment_acked_cumulatively(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(0))
        rcv.on_packet(data(1000))
        assert [a.ack_seq for a in wire.acks] == [1000, 2000]
        assert rcv.bytes_delivered == 2000

    def test_ack_echoes_sent_time(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(0, sent_time=1.25))
        assert wire.last.ts_echo == 1.25

    def test_retransmit_not_echoed(self):
        """Karn's algorithm: no RTT sample from retransmitted segments."""
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(0, retransmit=True, sent_time=1.25))
        assert wire.last.ts_echo is None

    def test_syn_gets_synack(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(Packet(flow_id=1, src="server", dst="client",
                             kind=PacketKind.SYN))
        assert wire.last.kind is PacketKind.SYNACK


class TestOutOfOrder:
    def test_gap_elicits_duplicate_ack(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(0))
        rcv.on_packet(data(2000))  # hole at [1000, 2000)
        assert [a.ack_seq for a in wire.acks] == [1000, 1000]

    def test_hole_fill_jumps_cumulative_ack(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(0))
        rcv.on_packet(data(2000))
        rcv.on_packet(data(3000))
        rcv.on_packet(data(1000))  # fills the hole
        assert wire.last.ack_seq == 4000
        assert rcv.ooo == []

    def test_sack_blocks_advertised(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(0))
        rcv.on_packet(data(2000))
        assert wire.last.sack == ((2000, 3000),)

    def test_most_recent_block_first(self):
        """RFC 2018: the triggering segment's interval leads."""
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(2000))
        rcv.on_packet(data(6000))
        assert wire.last.sack[0] == (6000, 7000)
        rcv.on_packet(data(2000 + 1000))  # extends the first interval
        assert wire.last.sack[0] == (2000, 4000)

    def test_sack_block_limit(self):
        sim, rcv, wire = make_receiver()
        for i in range(6):  # 6 disjoint intervals above a hole
            rcv.on_packet(data(2000 + i * 2000))
        assert len(wire.last.sack) == TcpReceiver.MAX_SACK_BLOCKS

    def test_adjacent_intervals_merge(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(2000))
        rcv.on_packet(data(3000))
        assert rcv.ooo == [(2000, 4000)]

    def test_duplicate_segment_reacked(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(0))
        rcv.on_packet(data(0))
        assert [a.ack_seq for a in wire.acks] == [1000, 1000]
        assert rcv.duplicate_segments == 1

    def test_overlapping_ooo_segment(self):
        sim, rcv, wire = make_receiver()
        rcv.on_packet(data(2000, size=2000))
        rcv.on_packet(data(3000, size=2000))
        assert rcv.ooo == [(2000, 5000)]


class TestDelayedAck:
    def test_every_second_segment_acked_immediately(self):
        sim, rcv, wire = make_receiver(delayed_ack=True)
        rcv.on_packet(data(0))
        assert len(wire.acks) == 0
        rcv.on_packet(data(1000))
        assert len(wire.acks) == 1
        assert wire.last.ack_seq == 2000

    def test_timer_flushes_single_segment(self):
        sim, rcv, wire = make_receiver(delayed_ack=True)
        rcv.on_packet(data(0))
        sim.run()
        assert len(wire.acks) == 1
        assert wire.last.ack_seq == 1000

    def test_out_of_order_acks_immediately(self):
        sim, rcv, wire = make_receiver(delayed_ack=True)
        rcv.on_packet(data(2000))
        assert len(wire.acks) == 1
