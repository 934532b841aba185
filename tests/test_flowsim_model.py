"""Tests for the analytical flow models (CSA00 and the SUSS term)."""

import math

import pytest

from repro.flowsim.csa00 import Csa00Model
from repro.flowsim.model import (
    GAMMA_DELAYED_ACK,
    GAMMA_PER_ACK,
    FlowEstimate,
    PathParams,
    available_models,
    create_model,
    rounds_for_data,
    slow_start_data,
)
from repro.flowsim.suss_term import SussCsa00Model
from repro.workloads.scenarios import MBPS, PathScenario

#: a mid-range dumbbell: 100 Mbit/s, 40 ms -> ~333 segments of BDP.
PATH = PathParams(rtt=0.04, btl_bw=100.0 * MBPS)
#: a short fat pipe where SUSS has many rounds to compress.
FAT_PATH = PathParams(rtt=0.15, btl_bw=100.0 * MBPS)


class TestPathParams:
    def test_rejects_nonpositive_rtt_and_bw(self):
        with pytest.raises(ValueError):
            PathParams(rtt=0.0, btl_bw=1e6)
        with pytest.raises(ValueError):
            PathParams(rtt=0.1, btl_bw=0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
    def test_rejects_nan_and_infinite_rtt_and_bw(self, bad):
        """``nan <= 0`` is false, so a ``<= 0`` test once let NaN
        through into NaN FCTs."""
        with pytest.raises(ValueError, match="rtt must be positive and "
                                             "finite"):
            PathParams(rtt=bad, btl_bw=1e6)
        with pytest.raises(ValueError, match="btl_bw must be positive and "
                                             "finite"):
            PathParams(rtt=0.1, btl_bw=bad)

    def test_rejects_bad_loss_rate(self):
        with pytest.raises(ValueError):
            PathParams(rtt=0.1, btl_bw=1e6, loss_rate=1.0)
        with pytest.raises(ValueError):
            PathParams(rtt=0.1, btl_bw=1e6, loss_rate=-0.01)

    def test_gamma_follows_ack_regime(self):
        assert PATH.gamma == GAMMA_PER_ACK
        delayed = PathParams(rtt=0.04, btl_bw=1e6, delayed_ack=True)
        assert delayed.gamma == GAMMA_DELAYED_ACK

    def test_goodput_below_wire_rate(self):
        assert 0 < PATH.goodput < PATH.btl_bw

    def test_effective_rtt_exceeds_propagation(self):
        assert PATH.effective_rtt > PATH.rtt

    def test_segments_of_rounds_up(self):
        assert PATH.segments_of(1) == 1
        assert PATH.segments_of(PATH.mss) == 1
        assert PATH.segments_of(PATH.mss + 1) == 2
        with pytest.raises(ValueError):
            PATH.segments_of(0)

    def test_from_scenario_projects_path_fields(self):
        scenario = PathScenario(name="t", server="s", link_type="wired",
                                client_location="lab", rtt=0.08,
                                btl_bw=20.0 * MBPS, bw_variation=0.1,
                                jitter=0.001, loss_rate=0.002,
                                buffer_bdp=2.0)
        path = PathParams.from_scenario(scenario)
        assert path.rtt == scenario.rtt
        assert path.btl_bw == scenario.btl_bw
        assert path.loss_rate == scenario.loss_rate
        assert path.buffer_bdp == scenario.buffer_bdp


class TestSlowStartHelpers:
    def test_geometric_series_matches_manual_sum(self):
        # iw=10, gamma=2: rounds send 10, 20, 40, ...
        assert slow_start_data(10, 2.0, 3) == pytest.approx(70.0)

    def test_rounds_for_data_inverts_slow_start_data(self):
        for rounds in range(1, 12):
            sent = slow_start_data(10, 2.0, rounds)
            assert rounds_for_data(10, 2.0, sent) == rounds
            assert rounds_for_data(10, 2.0, sent + 0.5) == rounds + 1

    def test_gamma_one_is_linear(self):
        assert slow_start_data(10, 1.0, 4) == 40.0
        assert rounds_for_data(10, 1.0, 35) == 4


class TestRegistry:
    def test_both_models_registered(self):
        assert "csa00" in available_models()
        assert "csa00+suss" in available_models()

    def test_unknown_model_rejected_with_known_names(self):
        with pytest.raises(KeyError, match="csa00"):
            create_model("bbr-analytical")


class TestCsa00Model:
    def test_fct_monotone_in_size(self):
        model = Csa00Model()
        fcts = [model.estimate(size, PATH).fct
                for size in (10_000, 100_000, 1_000_000, 10_000_000)]
        assert fcts == sorted(fcts)
        assert len(set(fcts)) == len(fcts)

    def test_one_segment_flow_is_handshake_plus_round(self):
        est = create_model("csa00").estimate(1000, PATH)
        assert est.segments == 1
        assert est.ss_rounds == 1
        assert est.loss_recovery_time == 0.0
        assert est.ca_time == 0.0
        # handshake + a single request/response exchange: ~2 RTT.
        assert est.fct == pytest.approx(2 * PATH.rtt, rel=0.1)

    def test_lossless_flow_has_no_recovery_term(self):
        est = create_model("csa00").estimate(5_000_000, PATH)
        assert est.retransmits == 0.0
        assert est.loss_episodes == 0.0
        assert est.loss_recovery_time == 0.0

    def test_loss_inflates_fct_and_retransmits(self):
        model = Csa00Model()
        lossy = PathParams(rtt=0.04, btl_bw=100.0 * MBPS, loss_rate=0.01)
        clean_est = model.estimate(2_000_000, PATH)
        lossy_est = model.estimate(2_000_000, lossy)
        assert lossy_est.fct > clean_est.fct
        assert lossy_est.retransmits > 0.0
        assert lossy_est.loss_episodes > 0.0
        assert lossy_est.loss_rate == pytest.approx(
            lossy_est.retransmits / lossy_est.segments)

    def test_large_flow_saturates_pipe(self):
        est = create_model("csa00").estimate(50_000_000, PATH)
        assert est.pipe_saturated
        # lossless: the whole transfer is modelled inside the slow-start
        # phase (ladder + bottleneck drain), no steady-state term.
        assert est.ca_time == 0.0
        # the bulk tail cannot beat the saturated goodput bound.
        assert est.fct > 50_000_000 / PATH.goodput

    def test_lossy_saturated_flow_has_steady_state_tail(self):
        lossy = PathParams(rtt=0.04, btl_bw=100.0 * MBPS, loss_rate=0.005)
        est = create_model("csa00").estimate(50_000_000, lossy)
        assert est.ca_time > 0.0
        assert est.ss_segments < est.segments

    def test_short_flow_stays_data_limited(self):
        est = create_model("csa00").estimate(30_000, PATH)
        assert not est.pipe_saturated
        assert est.ca_time == 0.0
        assert est.ss_rounds == 2  # 21 segments: IW 10 then 11 more

    def test_delayed_ack_slows_slow_start(self):
        model = Csa00Model()
        delayed = PathParams(rtt=0.04, btl_bw=100.0 * MBPS, delayed_ack=True)
        assert (model.estimate(500_000, delayed).fct
                > model.estimate(500_000, PATH).fct)

    def test_fct_decomposition_sums(self):
        for size in (1000, 30_000, 500_000, 20_000_000):
            est = create_model("csa00").estimate(size, PATH)
            assert est.fct == pytest.approx(
                est.handshake_time + est.ss_time + est.loss_recovery_time
                + est.ca_time)

    def test_estimate_fields_finite(self):
        est = create_model("csa00").estimate(123_456, PATH)
        assert isinstance(est, FlowEstimate)
        for name, value in est.__dict__.items():
            if isinstance(value, float):
                assert math.isfinite(value), name


class TestSussModel:
    def test_suss_never_slower_than_base(self):
        """Fig. 11/12 direction: compressed slow start never hurts FCT."""
        base, suss = Csa00Model(), SussCsa00Model()
        for path in (PATH, FAT_PATH):
            for size in (1000, 30_000, 60_000, 250_000, 1_000_000,
                         4_000_000, 50_000_000):
                assert suss.estimate(size, path).fct \
                    <= base.estimate(size, path).fct + 1e-12

    def test_multi_round_flow_saves_rounds(self):
        est = SussCsa00Model().estimate(4_000_000, FAT_PATH)
        assert est.rounds_saved > 0
        base = Csa00Model().estimate(4_000_000, FAT_PATH)
        assert est.ss_rounds < base.ss_rounds
        assert base.rounds_saved == 0

    def test_iw_sized_flow_untouched(self):
        """A flow that fits in the initial window has no train to
        accelerate from — SUSS must be a no-op."""
        base = Csa00Model().estimate(10_000, PATH)
        suss = SussCsa00Model().estimate(10_000, PATH)
        assert suss.fct == base.fct
        assert suss.rounds_saved == 0

    def test_k_max_zero_disables_acceleration(self):
        disabled = SussCsa00Model(k_max=0)
        base = Csa00Model()
        for size in (60_000, 4_000_000):
            assert disabled.estimate(size, FAT_PATH).fct == pytest.approx(
                base.estimate(size, FAT_PATH).fct)

    def test_higher_k_max_saves_at_least_as_many_rounds(self):
        k1 = SussCsa00Model(k_max=1).estimate(8_000_000, FAT_PATH)
        k3 = SussCsa00Model(k_max=3).estimate(8_000_000, FAT_PATH)
        assert k3.rounds_saved >= k1.rounds_saved
        assert k3.fct <= k1.fct + 1e-12

    def test_saturated_steady_state_matches_base(self):
        """SUSS reaches saturation sooner but the steady-state tail
        (a loss-rate property of the path, not of slow start) must
        agree between models."""
        lossy = PathParams(rtt=0.04, btl_bw=100.0 * MBPS, loss_rate=0.005)
        base = Csa00Model().estimate(50_000_000, lossy)
        suss = SussCsa00Model().estimate(50_000_000, lossy)
        assert suss.ca_time == pytest.approx(base.ca_time, rel=0.05)
        assert suss.fct <= base.fct + 1e-12
