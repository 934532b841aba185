"""Unit/behaviour tests for the TCP sender over a real simulated path."""

import pytest

from repro.net import LossModel, Packet, PacketKind
from repro.obs import MemorySink, tracing

from tests.helpers import MSS, make_transfer
from tests.reference_scoreboard import merge_intervals


class TestHandshake:
    def test_handshake_seeds_min_rtt(self):
        bench = make_transfer(size=10 * MSS, rtt=0.08).run()
        assert bench.sender.rtt.min_rtt is not None
        assert abs(bench.sender.rtt.min_rtt - 0.08) < 0.005

    def test_fct_includes_handshake(self):
        bench = make_transfer(size=1 * MSS, rtt=0.1).run()
        # SYN + SYNACK (1 RTT) + data + ack (1 RTT) ~= 0.2 s
        assert bench.transfer.fct == pytest.approx(0.2, abs=0.02)

    def test_start_twice_rejected(self):
        bench = make_transfer(size=10 * MSS)
        bench.sim.run(until=1.0)
        with pytest.raises(RuntimeError):
            bench.sender.start()


class TestBulkTransfer:
    def test_completes_exactly(self):
        size = 137 * MSS + 123  # non-segment-aligned
        bench = make_transfer(size=size).run()
        assert bench.transfer.completed
        assert bench.sender.snd_una == size
        assert bench.receiver.bytes_delivered == size

    def test_initial_window_is_ten_segments(self):
        bench = make_transfer(size=1000 * MSS)
        bench.sim.run(until=0.12)  # handshake done, first flight out
        assert bench.sender.snd_nxt == 10 * MSS

    def test_no_loss_no_retransmissions(self):
        bench = make_transfer(size=200 * MSS, buffer_bdp=3.0).run()
        assert bench.sender.retransmissions == 0
        assert bench.sender.rto_count == 0

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError):
            make_transfer(size=0)

    def test_rwnd_caps_window(self):
        bench = make_transfer(size=400 * MSS, rwnd=4 * MSS,
                              collect=True).run()
        assert bench.transfer.completed
        max_inflight = bench.telemetry.flow(1).inflight.max_value()
        assert max_inflight <= 4 * MSS

    def test_slow_start_doubles_per_round(self):
        bench = make_transfer(size=2000 * MSS, rate=125_000_000, rtt=0.1,
                              collect=True)
        bench.sim.run(until=0.45)  # handshake + ~2.5 data rounds
        cwnd = bench.telemetry.flow(1).cwnd
        # Handshake ends ~0.1s; round-2 ACKs (~0.2s) double 10->20 segs,
        # round-3 ACKs (~0.3s) double 20->40 segs.
        assert cwnd.value_at(0.25) == pytest.approx(20 * MSS, rel=0.15)
        assert cwnd.value_at(0.35) == pytest.approx(40 * MSS, rel=0.15)


class TestLossRecovery:
    def test_recovers_from_single_loss_burst(self):
        # Without HyStart, slow start overshoots until the buffer drops.
        bench = make_transfer(cc="cubic-nohystart", size=2600 * MSS,
                              buffer_bdp=0.25).run()
        assert bench.transfer.completed
        assert bench.sender.fast_retransmits >= 1
        assert bench.drops > 0

    def test_random_loss_still_completes(self):
        import random
        bench = make_transfer(size=300 * MSS)
        bench.net.bottleneck_fwd.loss = LossModel(0.02, random.Random(3))
        bench.run()
        assert bench.transfer.completed
        assert bench.sender.retransmissions >= 1

    def test_heavy_loss_still_completes(self):
        import random
        bench = make_transfer(size=150 * MSS)
        bench.net.bottleneck_fwd.loss = LossModel(0.15, random.Random(3))
        bench.run(until=600.0)
        assert bench.transfer.completed

    def test_ack_path_loss_tolerated(self):
        import random
        bench = make_transfer(size=200 * MSS)
        bench.net.bottleneck_rev.loss = LossModel(0.1, random.Random(7))
        bench.run()
        # Cumulative ACKs make ACK loss nearly free.
        assert bench.transfer.completed

    def test_retransmissions_counted(self):
        sink = MemorySink()
        bench = make_transfer(cc="cubic-nohystart", size=2600 * MSS,
                              buffer_bdp=0.25,
                              obs=tracing(sink, kinds={"pkt.send"})).run()
        resent = [r for r in sink.records if r.fields["retx"]]
        assert len(resent) == bench.sender.retransmissions
        assert len(sink.records) == bench.sender.data_packets_sent
        assert bench.sender.retransmissions >= bench.drops * 0.5

    def test_cwnd_reduced_after_loss(self):
        bench = make_transfer(cc="cubic-nohystart", size=2600 * MSS,
                              buffer_bdp=0.25).run()
        cc = bench.cc
        assert cc.ssthresh < 1 << 60  # loss ended slow start


class TestRto:
    def test_total_blackhole_triggers_rto_backoff(self):
        bench = make_transfer(size=100 * MSS)
        import random
        bench.net.bottleneck_fwd.loss = LossModel(0.9999, random.Random(1))
        bench.sim.run(until=20.0)
        assert bench.sender.rto_count >= 2
        assert not bench.transfer.completed

    def test_syn_loss_retried(self):
        import random

        class OneShotLoss:
            def __init__(self):
                self.dropped = False

            def drops(self):
                if not self.dropped:
                    self.dropped = True
                    return True
                return False

        bench = make_transfer(size=20 * MSS)
        bench.net.bottleneck_fwd.loss = OneShotLoss()
        bench.run()
        assert bench.transfer.completed

    def test_no_spurious_rto_on_clean_path(self):
        bench = make_transfer(size=2000 * MSS, rtt=0.25, buffer_bdp=2.0).run()
        assert bench.sender.rto_count == 0


class TestSackScoreboard:
    def test_merge_intervals(self):
        assert merge_intervals([(5, 7), (1, 3), (2, 4)]) == [(1, 4), (5, 7)]
        assert merge_intervals([]) == []
        assert merge_intervals([(1, 2), (2, 3)]) == [(1, 3)]

    def test_sack_state_cleared_below_una(self):
        bench = make_transfer(cc="cubic-nohystart", size=2600 * MSS,
                              buffer_bdp=0.25).run()
        sender = bench.sender
        assert all(end > sender.snd_una for _, end in sender.sacked) or \
            not sender.sacked

    def test_flight_never_negative(self):
        bench = make_transfer(cc="cubic-nohystart", size=2600 * MSS,
                              buffer_bdp=0.2)
        sender = bench.sender
        violations = []
        orig = sender._on_ack

        def checked(pkt):
            orig(pkt)
            if sender.bytes_in_flight < 0:
                violations.append(sender.bytes_in_flight)

        sender._on_ack = checked
        bench.run()
        assert not violations


class TestDeliveryRate:
    def test_rate_samples_close_to_bottleneck(self):
        rates = []

        class Probe:
            pass

        bench = make_transfer(cc="bbr", size=3000 * MSS, rate=1_250_000,
                              rtt=0.05, buffer_bdp=4.0)
        cc = bench.cc
        orig = cc.on_ack

        def wrapped(ack):
            if ack.delivery_rate is not None:
                rates.append(ack.delivery_rate)
            orig(ack)

        cc.on_ack = wrapped
        bench.run()
        assert rates
        # Steady-state samples should estimate the bottleneck rate.
        steady = sorted(rates)[len(rates) // 2]
        assert steady == pytest.approx(1_250_000, rel=0.35)


class TestRounds:
    def test_round_counter_advances_about_once_per_rtt(self):
        bench = make_transfer(size=300 * MSS, rtt=0.1, rate=125_000_000)
        bench.run()
        fct = bench.transfer.fct
        rounds = bench.sender.round_index
        assert rounds == pytest.approx(fct / 0.1, abs=2)

    def test_completion_callback(self):
        done = []
        bench = make_transfer(size=10 * MSS,
                              on_complete=lambda s: done.append(s.flow_id))
        bench.run()
        assert done == [1]
