"""Tests for the related-work slow-start baselines (paper Section 2)."""

import pytest

from repro.cc import StatefulCubic, create

from tests.helpers import MSS, make_transfer


class TestLargeIw:
    def test_starts_at_configured_window(self):
        bench = make_transfer(cc="cubic-iw32", size=1000 * MSS)
        bench.sim.run(until=0.12)  # right after handshake
        assert bench.sender.snd_nxt == 32 * MSS

    def test_faster_than_default_iw_on_clean_path(self):
        big = make_transfer(cc="cubic-iw32", size=700 * MSS).run()
        normal = make_transfer(cc="cubic", size=700 * MSS).run()
        assert big.transfer.fct < normal.transfer.fct

    def test_bursts_hurt_on_shallow_buffer(self):
        """The IETF's worry about large IW: the initial burst drops."""
        big = make_transfer(cc="cubic-iw64", size=700 * MSS, rate=1_250_000,
                            rtt=0.05, buffer_bdp=0.5).run()
        assert big.drops > 0


class TestInitialSpreading:
    def test_first_window_is_paced(self):
        bench = make_transfer(cc="cubic-spread-iw32", size=1000 * MSS)
        sends = []
        orig = bench.sender._send_segment

        def wrapped(seq, size, retransmit):
            sends.append(bench.sim.now)
            orig(seq, size, retransmit)

        bench.sender._send_segment = wrapped
        bench.sim.run(until=0.19)  # the first (spread) window only
        assert len(sends) >= 25
        # Packets spread across a substantial part of the RTT, not a burst.
        assert sends[-1] - sends[0] > 0.05

    def test_avoids_large_iw_burst_loss(self):
        spread = make_transfer(cc="cubic-spread-iw64", size=700 * MSS,
                               rate=1_250_000, rtt=0.05, buffer_bdp=0.5).run()
        burst = make_transfer(cc="cubic-iw64", size=700 * MSS,
                              rate=1_250_000, rtt=0.05, buffer_bdp=0.5).run()
        assert spread.drops <= burst.drops

    def test_disrupts_hystart_unlike_suss(self):
        """The paper's argument for SUSS's clocking/pacing split: naive
        pacing stretches the ACK train and HyStart exits early."""
        spread = make_transfer(cc="cubic-spread-iw32", size=1400 * MSS).run()
        suss = make_transfer(cc="cubic+suss", size=1400 * MSS).run()
        assert spread.cc.ssthresh < suss.cc.ssthresh


class TestJumpStart:
    def test_small_flow_in_one_round(self):
        """JumpStart delivers a small flow in ~2 RTTs (handshake + jump)."""
        bench = make_transfer(cc="jumpstart", size=200 * MSS, rtt=0.1,
                              buffer_bdp=2.0).run()
        assert bench.transfer.completed
        assert bench.transfer.fct < 0.45

    def test_jump_capped_by_rwnd(self):
        bench = make_transfer(cc="jumpstart", size=2000 * MSS,
                              rwnd=50 * MSS, buffer_bdp=2.0)
        bench.sim.run(until=0.15)
        assert bench.cc.jump_bytes <= 50 * MSS

    def test_overshoot_causes_loss_where_suss_does_not(self):
        """The risk the paper highlights: jumping a large flow into a
        modest buffer drops packets; SUSS's vetted acceleration does not."""
        jump = make_transfer(cc="jumpstart", size=2000 * MSS,
                             buffer_bdp=0.5).run()
        suss = make_transfer(cc="cubic+suss", size=2000 * MSS,
                             buffer_bdp=0.5).run()
        assert jump.drops > suss.drops

    def test_still_completes_after_overshoot(self):
        bench = make_transfer(cc="jumpstart", size=2000 * MSS,
                              buffer_bdp=0.3).run()
        assert bench.transfer.completed


class TestHalfback:
    def test_completes_fast_on_clean_path(self):
        bench = make_transfer(cc="halfback", size=200 * MSS, rtt=0.1,
                              buffer_bdp=2.0).run()
        assert bench.transfer.fct < 0.45

    def test_documented_retransmission_overhead(self):
        """Li et al. (and the paper's Section 2) note Halfback re-transmits
        nearly 50% of packets on constrained paths — the price of its
        held-open window.  The model reproduces that overhead."""
        bench = make_transfer(cc="halfback", size=2000 * MSS,
                              buffer_bdp=0.3).run()
        assert bench.transfer.completed
        sender = bench.sender
        assert sender.retransmissions / sender.data_packets_sent > 0.25

    def test_protection_absorbs_loss_events(self):
        """During protection Halfback does not collapse its window on the
        first loss event the way JumpStart('s CUBIC fallback) does."""
        bench = make_transfer(cc="halfback", size=2000 * MSS,
                              buffer_bdp=0.3)
        cc = bench.cc
        bench.sim.run(until=0.25)  # inside the protection phase
        cwnd_held = cc.cwnd
        assert cwnd_held >= cc.jump_bytes * 0.9


class TestStateful:
    def setup_method(self):
        StatefulCubic.reset_history()

    def test_first_flow_learns_second_flow_reuses(self):
        first = make_transfer(cc="cubic-stateful", size=1400 * MSS).run()
        assert not first.cc.started_from_history
        second = make_transfer(cc="cubic-stateful", size=1400 * MSS).run()
        assert second.cc.started_from_history
        assert second.transfer.fct < first.transfer.fct

    def test_history_is_per_destination(self):
        make_transfer(cc="cubic-stateful", size=1400 * MSS).run()
        assert "client0" in StatefulCubic._history
        assert "otherhost" not in StatefulCubic._history

    def test_history_averages_over_flows(self):
        for _ in range(3):
            make_transfer(cc="cubic-stateful", size=1400 * MSS).run()
        estimate, n = StatefulCubic._history["client0"]
        assert n == 3
        assert estimate > 0


class TestRegistry:
    def test_variants_registered(self):
        for name in ("cubic-iw32", "cubic-iw64", "cubic-spread-iw32",
                     "cubic-spread-iw64", "jumpstart", "halfback",
                     "cubic-stateful"):
            assert create(name) is not None
