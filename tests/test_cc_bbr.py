"""Unit/behaviour tests for BBRv1 and BBRv2."""

import pytest

from repro.cc.bbr import Bbr, BbrMode
from repro.cc.bbr2 import Bbr2

from tests.helpers import MSS, make_transfer


class TestBbrStateMachine:
    def test_startup_to_drain_to_probe_bw(self):
        bench = make_transfer(cc="bbr", size=4000 * MSS, rate=12_500_000,
                              rtt=0.05, buffer_bdp=3.0)
        cc = bench.cc
        modes = []

        orig = cc.on_ack

        def wrapped(ack):
            orig(ack)
            if not modes or modes[-1] != cc.mode:
                modes.append(cc.mode)

        cc.on_ack = wrapped
        bench.run()
        assert bench.transfer.completed
        assert modes[0] is BbrMode.STARTUP
        # DRAIN can be transited within a single ACK when inflight is
        # already at/below BDP, so only its outcome is asserted.
        assert BbrMode.PROBE_BW in modes
        assert cc.filled_pipe

    def test_bw_estimate_near_bottleneck(self):
        bench = make_transfer(cc="bbr", size=4000 * MSS, rate=12_500_000,
                              rtt=0.05, buffer_bdp=3.0).run()
        assert bench.cc.bottleneck_bw == pytest.approx(12_500_000, rel=0.25)

    def test_rtprop_near_path_rtt(self):
        bench = make_transfer(cc="bbr", size=2000 * MSS, rtt=0.08,
                              buffer_bdp=3.0).run()
        assert bench.cc.rtprop == pytest.approx(0.08, rel=0.1)

    def test_paces_in_steady_state(self):
        bench = make_transfer(cc="bbr", size=3000 * MSS, buffer_bdp=3.0)
        bench.sim.run(until=2.0)
        assert bench.cc.pacing_rate is not None

    def test_inflight_bounded_after_startup(self):
        """Post-drain, inflight should hover near cwnd_gain * BDP."""
        bench = make_transfer(cc="bbr", size=8000 * MSS, rate=12_500_000,
                              rtt=0.05, buffer_bdp=4.0, collect=True).run()
        bdp = 12_500_000 * 0.05
        trace = bench.telemetry.flow(1)
        late = [v for t, v in trace.inflight
                if t > bench.transfer.fct * 0.6]
        assert late
        assert max(late) < 3.0 * bdp

    def test_completes_against_loss(self):
        import random
        from repro.net import LossModel
        bench = make_transfer(cc="bbr", size=1000 * MSS)
        bench.net.bottleneck_fwd.loss = LossModel(0.03, random.Random(5))
        bench.run()
        assert bench.transfer.completed


class TestBbr2:
    def test_inflight_hi_set_on_loss(self):
        bench = make_transfer(cc="bbr2", size=3000 * MSS,
                              buffer_bdp=0.3).run()
        assert bench.transfer.completed
        if bench.drops > 0:
            assert bench.cc.inflight_hi is not None

    def test_less_aggressive_than_v1_under_shallow_buffer(self):
        drops = {}
        for name in ("bbr", "bbr2"):
            bench = make_transfer(cc=name, size=6000 * MSS, rate=12_500_000,
                                  rtt=0.1, buffer_bdp=0.3).run()
            assert bench.transfer.completed
            drops[name] = bench.drops
        assert drops["bbr2"] <= drops["bbr"]

    def test_clean_path_same_speed_as_v1(self):
        fct = {}
        for name in ("bbr", "bbr2"):
            bench = make_transfer(cc=name, size=2000 * MSS,
                                  buffer_bdp=3.0).run()
            fct[name] = bench.transfer.fct
        assert fct["bbr2"] == pytest.approx(fct["bbr"], rel=0.2)


class TestBbrVsCubicShape:
    def test_bbr_loss_tolerant_vs_cubic(self):
        """Fig. 2's premise: random loss hurts CUBIC far more than BBR."""
        import random
        from repro.net import LossModel
        fct = {}
        for name in ("bbr", "cubic"):
            bench = make_transfer(cc=name, size=2000 * MSS, rate=12_500_000,
                                  rtt=0.1)
            bench.net.bottleneck_fwd.loss = LossModel(0.01, random.Random(9))
            bench.run()
            assert bench.transfer.completed
            fct[name] = bench.transfer.fct
        assert fct["bbr"] < fct["cubic"]
