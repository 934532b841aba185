"""Tests for application-driven streaming transfers."""

import pytest

from repro.net import bdp_bytes, build_path
from repro.sim import Simulator
from repro.tcp.stream import open_stream

from tests.helpers import MSS
from tests.test_integration_loss_patterns import IndexedLoss


def stream_bench(cc="cubic", rate=12_500_000, rtt=0.1, drops=()):
    sim = Simulator()
    net = build_path(sim, rate, rtt, bdp_bytes(rate, rtt))
    net.bottleneck_fwd.loss = IndexedLoss(drops)
    source, transfer = open_stream(sim, net.servers[0], net.clients[0],
                                   flow_id=1, cc=cc)
    return sim, source, transfer


class TestStreaming:
    def test_write_then_close_delivers_exactly(self):
        sim, source, transfer = stream_bench()
        source.write(50 * MSS)
        source.write(30 * MSS)
        source.close()
        sim.run(until=60.0)
        assert transfer.completed
        assert transfer.receiver.bytes_delivered == 80 * MSS

    def test_no_completion_while_open(self):
        sim, source, transfer = stream_bench()
        source.write(5 * MSS)
        sim.run(until=10.0)
        assert not transfer.completed          # stream still open
        assert transfer.sender.snd_una == 5 * MSS  # but data delivered
        source.close()
        sim.run(until=20.0)
        assert transfer.completed

    def test_scheduled_writes(self):
        """Chunks written by timers (a segmented-video server)."""
        sim, source, transfer = stream_bench()
        for i in range(5):
            sim.schedule(0.5 * i, source.write, 100 * MSS)
        sim.schedule(3.0, source.close)
        sim.run(until=60.0)
        assert transfer.completed
        assert transfer.receiver.bytes_delivered == 500 * MSS

    def test_close_with_everything_acked(self):
        sim, source, transfer = stream_bench()
        source.write(2 * MSS)
        sim.run(until=5.0)     # all data delivered and ACKed
        source.close()
        sim.run(until=6.0)
        assert transfer.completed

    def test_write_after_close_rejected(self):
        sim, source, transfer = stream_bench()
        source.write(MSS)
        source.close()
        with pytest.raises(RuntimeError):
            source.write(MSS)

    def test_invalid_write(self):
        sim, source, transfer = stream_bench()
        with pytest.raises(ValueError):
            source.write(0)

    def test_backlog_accounting(self):
        sim, source, transfer = stream_bench()
        source.write(1000 * MSS)
        assert source.backlog == 1000 * MSS  # handshake not done yet
        sim.run(until=0.35)
        assert source.backlog < 1000 * MSS

    def test_double_close_is_noop(self):
        sim, source, transfer = stream_bench()
        source.write(MSS)
        source.close()
        source.close()
        sim.run(until=5.0)
        assert transfer.completed


class TestStreamingWithSuss:
    def test_trickle_stream_never_accelerates(self):
        """An app-limited trickle gives SUSS nothing to accelerate."""
        sim, source, transfer = stream_bench(cc="cubic+suss")
        for i in range(20):
            sim.schedule(0.2 * i, source.write, 2 * MSS)
        sim.schedule(4.5, source.close)
        sim.run(until=60.0)
        assert transfer.completed
        assert transfer.sender.cc.accelerated_rounds == 0

    def test_bulk_stream_accelerates_like_a_file(self):
        sim, source, transfer = stream_bench(cc="cubic+suss")
        source.write(2000 * MSS)
        source.close()
        sim.run(until=60.0)
        assert transfer.completed
        assert transfer.sender.cc.accelerated_rounds >= 1

    def test_bursty_stream_completes(self):
        sim, source, transfer = stream_bench(cc="cubic+suss")
        sim.schedule(0.0, source.write, 500 * MSS)
        sim.schedule(2.0, source.write, 500 * MSS)  # idle gap between bursts
        sim.schedule(2.0, source.close)
        sim.run(until=60.0)
        assert transfer.completed
        assert transfer.receiver.bytes_delivered == 1000 * MSS


class TestIdleStream:
    """RFC 6298 (5.2): with nothing outstanding the retransmission timer
    is off, so a connection that sits idle between writes does not time
    out on nothing, back its RTO off and collapse its window."""

    def test_idle_gaps_cause_no_rto(self):
        sim, source, transfer = stream_bench()
        sender = transfer.sender
        sim.schedule_at(0.5, source.write, 100_000)
        sim.schedule_at(5.0, source.write, 100_000)
        sim.schedule_at(9.0, source.close)
        cwnd = []
        for tick in range(1, 90):
            sim.schedule_at(tick / 10.0, lambda: cwnd.append(sender.cc.cwnd))
        sim.run(until=1.0)
        assert sender.snd_una == 100_000
        sim.run(until=20.0)
        assert transfer.completed
        assert sender.rto_count == 0
        assert sender.retransmissions == 0
        assert sender._rto_backoff == 1.0
        assert cwnd == sorted(cwnd)

    def test_loss_after_an_idle_gap_recovers_by_rto(self):
        """The timer the idle gap turned off is started again by the next
        send (5.1): a lone lost segment has no dupacks to save it."""
        # the forward bottleneck carries the SYN, two segments, then the
        # segment written at 5.0
        sim, source, transfer = stream_bench(drops={3})
        sender = transfer.sender
        sim.schedule_at(0.5, source.write, 2 * MSS)
        sim.schedule_at(5.0, source.write, MSS)
        sim.schedule_at(5.0, source.close)
        sim.run(until=5.0)
        rto = sender.rtt.rto
        assert sender.rto_count == 0
        sim.run(until=20.0)
        assert transfer.completed
        assert sender.rto_count == 1 and sender.retransmissions == 1
        assert transfer.receiver.bytes_delivered == 3 * MSS
        # one RTO after the send, then one RTT for the resent segment
        assert transfer.sender.completion_time == pytest.approx(
            5.0 + rto + 0.1, abs=0.01)
