"""Unit tests for Reno and CUBIC congestion control."""

import pytest

from repro.cc import AckInfo, Cubic, Reno, available, create
from repro.cc.reno import INFINITE_SSTHRESH

from tests.helpers import MSS, make_transfer


def ack(now=0.0, acked=MSS, seq=0, rtt=0.1, flight=0, in_recovery=False):
    return AckInfo(now=now, acked_bytes=acked, ack_seq=seq, rtt_sample=rtt,
                   flight=flight, in_recovery=in_recovery)


class FakeSender:
    """Minimal sender stub for driving CC units directly."""

    def __init__(self, mss=MSS, iw_segments=10):
        self.mss = mss
        self.iw_bytes = iw_segments * mss

        class _Rtt:
            min_rtt = 0.1

            def rounds_since_min_update(self, r):
                return 0

        self.rtt = _Rtt()


class TestRegistry:
    def test_known_algorithms_registered(self):
        names = available()
        for name in ["reno", "cubic", "cubic+suss", "bbr", "bbr2",
                     "cubic+hystartpp", "cubic-nohystart"]:
            assert name in names

    def test_create_unknown_raises(self):
        with pytest.raises(KeyError):
            create("vegas")

    def test_create_is_case_insensitive(self):
        assert isinstance(create("CUBIC"), Cubic)


class TestReno:
    def make(self):
        cc = Reno()
        cc.attach(FakeSender())
        return cc

    def test_initial_window(self):
        cc = self.make()
        assert cc.cwnd == 10 * MSS
        assert cc.in_slow_start

    def test_slow_start_grows_by_acked(self):
        cc = self.make()
        cc.on_ack(ack(acked=3 * MSS))
        assert cc.cwnd == 13 * MSS

    def test_loss_halves_window(self):
        cc = self.make()
        cc.on_loss(0.0)
        assert cc.cwnd == 5 * MSS
        assert cc.ssthresh == 5 * MSS
        assert not cc.in_slow_start

    def test_congestion_avoidance_linear(self):
        cc = self.make()
        cc.on_loss(0.0)
        start = cc.cwnd
        # One full window of ACKs grows cwnd by about one MSS.
        acked = 0
        while acked < start:
            cc.on_ack(ack())
            acked += MSS
        assert cc.cwnd - start == pytest.approx(MSS, rel=0.25)

    def test_rto_collapses_to_one_segment(self):
        cc = self.make()
        cc.on_rto(0.0)
        assert cc.cwnd == MSS

    def test_loss_floor_two_segments(self):
        cc = self.make()
        for _ in range(10):
            cc.on_loss(0.0)
        assert cc.cwnd >= 2 * MSS

    def test_no_growth_in_recovery(self):
        cc = self.make()
        before = cc.cwnd
        cc.on_ack(ack(in_recovery=True))
        assert cc.cwnd == before


class TestCubicUnit:
    def make(self, **kw):
        cc = Cubic(**kw)
        cc.attach(FakeSender())
        return cc

    def test_initial_state(self):
        cc = self.make()
        assert cc.cwnd == 10 * MSS
        assert cc.ssthresh == INFINITE_SSTHRESH
        assert cc.in_slow_start

    def test_loss_applies_beta(self):
        cc = self.make()
        cc.on_loss(0.0)
        assert cc.cwnd == pytest.approx(0.7 * 10 * MSS, rel=0.01)

    def test_fast_convergence_lowers_w_max(self):
        cc = self.make(fast_convergence=True)
        cc.on_loss(0.0)         # w_max = 10
        first_wmax = cc._w_max
        cc.on_loss(1.0)         # cwnd 7 < w_max -> fast convergence
        assert cc._w_max < 7.0 * 1.01
        assert cc._w_max == pytest.approx(7 * (2 - 0.7) / 2, rel=0.01)

    def test_no_fast_convergence(self):
        cc = self.make(fast_convergence=False)
        cc.on_loss(0.0)
        cc.on_loss(1.0)
        assert cc._w_max == pytest.approx(7.0, rel=0.01)

    def test_concave_growth_approaches_w_max(self):
        cc = self.make()
        # Force CA at w_max = 100 segments.
        cc._cwnd = 100 * MSS
        cc.on_loss(0.0)
        cwnd_after_loss = cc.cwnd
        # Feed ACKs up to roughly t = K (the concave plateau at w_max).
        t = 0.0
        for i in range(420):
            t += 0.01
            cc.on_ack(ack(now=t))
        assert cc.cwnd > cwnd_after_loss
        # In the concave region cwnd approaches w_max without overshooting
        # far past it.
        assert cc.cwnd <= 110 * MSS

    def test_convex_growth_beyond_w_max(self):
        cc = self.make()
        cc._cwnd = 100 * MSS
        cc.on_loss(0.0)
        t = 0.0
        for i in range(2000):  # run well past K: convex probing
            t += 0.01
            cc.on_ack(ack(now=t))
        assert cc.cwnd > 110 * MSS

    def test_growth_capped_per_ack(self):
        cc = self.make()
        cc._cwnd = 20 * MSS
        cc._ssthresh = 10 * MSS  # force CA
        before = cc.cwnd
        cc.on_ack(ack(now=100.0, acked=MSS))
        # At most half a segment per acked segment.
        assert cc.cwnd - before <= 0.5 * MSS + 1

    def test_rto_resets_epoch_and_window(self):
        cc = self.make()
        cc._cwnd = 50 * MSS
        cc.on_rto(0.0)
        assert cc.cwnd == MSS
        assert cc._epoch_start is None

    def test_hystart_exit_sets_ssthresh(self):
        cc = self.make()
        cc.exit_slow_start(1.0)
        assert cc.ssthresh == cc.cwnd
        assert not cc.in_slow_start
        assert cc.slow_start_exits == 1


class TestCubicBehaviour:
    def test_cubic_beats_reno_recovery_on_lfn(self):
        """After a loss on a long fat pipe, CUBIC regrows faster."""
        results = {}
        for name in ("cubic", "reno"):
            bench = make_transfer(cc=name, size=12000 * MSS,
                                  rate=62_500_000, rtt=0.15,
                                  buffer_bdp=0.6).run()
            assert bench.transfer.completed
            results[name] = bench.transfer.fct
        assert results["cubic"] <= results["reno"] * 1.05

    def test_hystart_prevents_overshoot_loss(self):
        with_hs = make_transfer(cc="cubic", size=2600 * MSS,
                                buffer_bdp=0.5).run()
        without_hs = make_transfer(cc="cubic-nohystart", size=2600 * MSS,
                                   buffer_bdp=0.5).run()
        assert with_hs.drops <= \
            without_hs.drops
        assert without_hs.drops > 0
