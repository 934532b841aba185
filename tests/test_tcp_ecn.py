"""Tests for end-to-end ECN (RFC 3168) with a CoDel-marking bottleneck."""

import pytest

from repro.net import CoDelQueue, bdp_bytes, build_path
from repro.net.packet import Packet, PacketKind
from repro.sim import Simulator
from repro.tcp import open_transfer

from tests.helpers import MSS


def ecn_bench(cc="cubic", size=3000 * MSS, rate=2_500_000, rtt=0.05,
              ecn=True, queue_ecn=True):
    sim = Simulator()
    buffer_bytes = 4 * bdp_bytes(rate, rtt)
    queue = CoDelQueue(buffer_bytes, ecn=queue_ecn)
    net = build_path(sim, rate, rtt, buffer_bytes, queue=queue)
    transfer = open_transfer(sim, net.servers[0], net.clients[0], flow_id=1,
                             size_bytes=size, cc=cc, ecn=ecn)
    sim.run(until=300.0)
    return sim, net, queue, transfer


class TestEcnMarking:
    def test_codel_marks_instead_of_dropping(self):
        sim, net, queue, transfer = ecn_bench()
        assert transfer.completed
        assert queue.marks > 0
        assert queue.drops == 0

    def test_sender_reacts_to_marks(self):
        sim, net, queue, transfer = ecn_bench()
        assert transfer.sender.ecn_reductions > 0
        # ECN reductions avoid retransmissions entirely.
        assert transfer.sender.retransmissions == 0

    def test_non_ecn_flow_gets_drops(self):
        sim, net, queue, transfer = ecn_bench(ecn=False)
        assert transfer.completed
        assert queue.marks == 0
        assert queue.drops > 0

    def test_ecn_reaction_once_per_window(self):
        """A whole round of ECE ACKs produces a single reduction."""
        sim, net, queue, transfer = ecn_bench()
        sender = transfer.sender
        # Far fewer reductions than marked packets.
        assert sender.ecn_reductions <= max(queue.marks, 1)
        assert sender.ecn_reductions < 60

    def test_ecn_flow_completes_no_slower_than_loss_flow(self):
        _, _, _, with_ecn = ecn_bench(ecn=True)
        _, _, _, without = ecn_bench(ecn=False)
        assert with_ecn.fct <= without.fct * 1.3


class TestEcnProtocol:
    def test_ece_latched_until_cwr(self):
        from repro.net import Host
        sim = Simulator()
        host = Host("client")
        sent = []

        class _Link:
            def send(self, p):
                sent.append(p)
                return True

        host.uplink = _Link()
        from repro.tcp import TcpReceiver
        rcv = TcpReceiver(sim, host, peer="server", flow_id=1)

        def data(seq, ce=False, cwr=False):
            return Packet(flow_id=1, src="server", dst="client",
                          kind=PacketKind.DATA, seq=seq, payload=1000,
                          ect=True, ce=ce, cwr=cwr)

        rcv.on_packet(data(0, ce=True))
        rcv.on_packet(data(1000))
        assert sent[-1].ece and sent[-2].ece  # latched across ACKs
        rcv.on_packet(data(2000, cwr=True))
        assert not sent[-1].ece  # CWR clears the echo

    def test_data_packets_carry_ect_only_when_enabled(self):
        sim, net, queue, transfer = ecn_bench(ecn=False,
                                                   size=20 * MSS)
        # queue saw no ECT packets: no marks even with marking on
        assert queue.marks == 0
