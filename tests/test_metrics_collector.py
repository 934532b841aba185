"""Unit tests for flow-series collection and summary statistics."""

import pytest

from repro.experiments.goldens import RECOVERY_PATHS
from repro.experiments.runner import FlowResult, run_single_flow
from repro.metrics import FlowCollector, Summary, improvement, summarize
from repro.obs import Observability
from repro.obs import records as obsrec

from tests.helpers import MSS, make_transfer


def collector():
    obs = Observability()
    return obs, FlowCollector(obs)


class TestTelemetryUnit:
    def test_flow_created_on_demand(self):
        _, tel = collector()
        trace = tel.flow(7)
        assert trace.flow_id == 7
        assert tel.flow(7) is trace

    def test_series_recorded(self):
        obs, tel = collector()
        obs.emit(0.5, obsrec.CC_CWND, 1, cwnd=14480, ssthresh=1 << 30,
                 flight=7240)
        obs.emit(0.5, obsrec.TCP_RTT, 1, rtt=0.1)
        obs.emit(0.5, obsrec.TCP_DELIVERED, 1, delivered=2896)
        trace = tel.flow(1)
        assert trace.cwnd.value_at(0.5) == 14480
        assert trace.inflight.value_at(0.5) == 7240
        assert trace.rtt.value_at(0.5) == 0.1
        assert trace.delivered.value_at(0.5) == 2896

    def test_sampling_can_be_disabled(self):
        # What is sampled is what is subscribed: with no collector no
        # series kind has a consumer, and a collector asks for exactly
        # its three kinds.
        series_kinds = {obsrec.CC_CWND, obsrec.TCP_RTT, obsrec.TCP_DELIVERED}
        idle = Observability()
        assert not any(idle.wants(kind) for kind in obsrec.ALL_KINDS)
        obs, tel = collector()
        assert {k for k in obsrec.ALL_KINDS if obs.wants(k)} == series_kinds
        obs.emit(0.5, obsrec.PKT_SEND, 1, seq=0, size=MSS, retx=False)
        assert not tel.flows

    def test_send_and_drop_counters(self):
        # The counts have one home each: the sender and the queue.
        bench = make_transfer(cc="cubic-nohystart", size=2600 * MSS,
                              buffer_bdp=0.25).run()
        queue = bench.net.bottleneck_queue
        assert queue.drops > 0 and queue.flow_drops == {1: queue.drops}
        result = run_single_flow(RECOVERY_PATHS["droptail"], "reno",
                                 2_000_000, seed=1)
        assert result.drops > 0
        assert result.loss_rate == result.drops / result.data_packets_sent

    def test_loss_rate_zero_when_nothing_sent(self):
        result = FlowResult("s", "cubic", 1, 0, None, False, 0, 0,
                            data_packets_sent=0, drops=0)
        assert result.loss_rate == 0.0

    def test_late_subscription_is_refused(self):
        bench = make_transfer(size=10 * MSS, obs=Observability())
        with pytest.raises(RuntimeError, match="subscribe first"):
            FlowCollector(bench.sim.obs)


class TestTelemetryIntegration:
    def test_delivered_matches_flow_size(self):
        bench = make_transfer(size=100 * MSS, collect=True).run()
        trace = bench.telemetry.flow(1)
        assert trace.delivered.max_value() == 100 * MSS
        assert trace.delivered.times[-1] < bench.sender.completion_time

    def test_cwnd_series_nondecreasing_time(self):
        bench = make_transfer(size=300 * MSS, collect=True).run()
        times = bench.telemetry.flow(1).cwnd.times
        assert times == sorted(times)


class TestSummary:
    def test_basic_stats(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.n == 3
        assert s.mean == 2.0
        assert s.std == pytest.approx(1.0)
        assert (s.minimum, s.maximum) == (1.0, 3.0)

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.std == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_improvement(self):
        assert improvement(2.0, 1.5) == pytest.approx(0.25)
        assert improvement(2.0, 2.5) == pytest.approx(-0.25)
        with pytest.raises(ValueError):
            improvement(0.0, 1.0)

    def test_str(self):
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))
