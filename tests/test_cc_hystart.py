"""Unit tests for HyStart (classic) and HyStart++."""

import pytest

from repro.cc.hystart import HyStart

from tests.helpers import MSS, make_transfer


def feed_round(hs, start, acks, min_rtt, rtt=None, cwnd_segs=100,
               spacing=0.0005):
    """Simulate a round of closely spaced ACKs; returns True if exit fired."""
    hs.on_round_start(start)
    t = start
    for _ in range(acks):
        t += spacing
        if hs.on_ack(t, rtt, min_rtt, cwnd_segs):
            return True
    return False


class TestAckTrain:
    def test_short_train_no_exit(self):
        hs = HyStart()
        # 20 ACKs over 10 ms against minRTT 100 ms -> train < 50 ms.
        assert not feed_round(hs, 0.0, 20, min_rtt=0.1)

    def test_long_train_exits(self):
        hs = HyStart()
        # 200 ACKs x 0.5 ms = 100 ms train >= minRTT/2.
        assert feed_round(hs, 0.0, 200, min_rtt=0.1)

    def test_gap_breaks_train(self):
        hs = HyStart()
        hs.on_round_start(0.0)
        t = 0.0
        fired = False
        for _ in range(200):
            t += 0.005  # 5 ms gaps exceed ACK_DELTA: never a train
            fired = fired or hs.on_ack(t, None, 0.1, 100)
        assert not fired

    def test_low_window_gate(self):
        hs = HyStart()
        assert not feed_round(hs, 0.0, 500, min_rtt=0.1, cwnd_segs=8)

    def test_exit_latches(self):
        hs = HyStart()
        assert feed_round(hs, 0.0, 200, min_rtt=0.1)
        assert hs.on_ack(1.0, None, 0.1, 100)  # stays fired

    def test_reset_rearms(self):
        hs = HyStart()
        assert feed_round(hs, 0.0, 200, min_rtt=0.1)
        hs.reset()
        assert not hs.found
        assert not feed_round(hs, 10.0, 20, min_rtt=0.1)


class TestDelayIncrease:
    def test_inflated_rtt_exits(self):
        hs = HyStart()
        hs.on_round_start(0.0)
        fired = False
        for i in range(10):
            # RTT 20% above minRTT > 1.125 threshold; samples spaced widely
            fired = fired or hs.on_ack(0.01 * (i + 1) + 0.005 * i, 0.12,
                                       0.1, 100)
        assert fired

    def test_needs_min_samples(self):
        hs = HyStart()
        hs.on_round_start(0.0)
        fired = False
        for i in range(HyStart().min_delay_samples - 1):
            fired = fired or hs.on_ack(0.02 * (i + 1), 0.2, 0.1, 100)
        assert not fired

    def test_rtt_below_threshold_continues(self):
        hs = HyStart()
        hs.on_round_start(0.0)
        fired = False
        for i in range(20):
            fired = fired or hs.on_ack(0.02 * (i + 1), 0.11, 0.1, 100)
        assert not fired  # 1.1x < 1.125x threshold

    def test_mo_rtt_is_round_minimum(self):
        hs = HyStart()
        hs.on_round_start(0.0)
        for i, rtt in enumerate([0.2, 0.12, 0.3]):
            hs.on_ack(0.02 * (i + 1), rtt, 0.1, 100)
        assert hs.mo_rtt == 0.12


class TestHyStartPPBehaviour:
    def test_exits_before_heavy_overshoot(self):
        plain = make_transfer(cc="cubic-nohystart", size=2600 * MSS,
                              buffer_bdp=0.5).run()
        hpp = make_transfer(cc="cubic+hystartpp", size=2600 * MSS,
                            buffer_bdp=0.5).run()
        assert hpp.transfer.completed
        assert hpp.drops <= plain.drops

    def test_clean_path_transfer_completes(self):
        bench = make_transfer(cc="cubic+hystartpp", size=800 * MSS,
                              buffer_bdp=2.0).run()
        assert bench.transfer.completed
        assert bench.sender.retransmissions == 0

    def test_css_state_machine_engages_on_congested_path(self):
        # A long transfer over a queue-building path must leave slow start
        # one way or another: CSS persistence, CSS in progress, or loss.
        bench = make_transfer(cc="cubic+hystartpp", size=8000 * MSS,
                              buffer_bdp=1.0).run()
        cc = bench.cc
        assert bench.transfer.completed
        engaged = (cc.ssthresh < 1 << 60 or cc.in_css
                   or bench.drops > 0)
        assert engaged
