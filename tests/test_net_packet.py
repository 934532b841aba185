"""Unit tests for the packet model."""

from repro.net import DEFAULT_MSS, HEADER_BYTES, Packet, PacketKind


def data_packet(seq=0, payload=DEFAULT_MSS, **kw):
    return Packet(flow_id=1, src="a", dst="b", kind=PacketKind.DATA,
                  seq=seq, payload=payload, **kw)


class TestPacket:
    def test_data_size_includes_header(self):
        pkt = data_packet(payload=1000)
        assert pkt.size == 1000 + HEADER_BYTES

    def test_ack_is_header_only(self):
        ack = Packet(flow_id=1, src="b", dst="a", kind=PacketKind.ACK,
                     ack_seq=5000)
        assert ack.size == HEADER_BYTES
        assert ack.is_ack and not ack.is_data

    def test_end_seq(self):
        pkt = data_packet(seq=1000, payload=500)
        assert pkt.end_seq == 1500

    def test_default_not_retransmit(self):
        assert not data_packet().retransmit

    def test_sack_default_none(self):
        assert data_packet().sack is None

    def test_kind_flags(self):
        syn = Packet(flow_id=1, src="a", dst="b", kind=PacketKind.SYN)
        assert not syn.is_data and not syn.is_ack
