"""Tests for the cross-traffic generator."""

import random

import pytest

from repro.sim import Simulator
from repro.workloads import CrossTraffic, FlowSpec, LocalTestbedConfig, launch_flows


def make_ct(load=0.3, seed=1, bottleneck_mbps=20.0):
    sim = Simulator()
    config = LocalTestbedConfig(bottleneck_mbps=bottleneck_mbps,
                                rtts=(0.05,) * 5)
    net = config.build(sim)
    ct = CrossTraffic(sim=sim, net=net, pair_index=4, target_load=load,
                      bottleneck_rate=config.btl_bw,
                      rng=random.Random(seed))
    return sim, net, config, ct


class TestCrossTraffic:
    def test_load_validation(self):
        sim, net, config, _ = make_ct()
        with pytest.raises(ValueError):
            CrossTraffic(sim=sim, net=net, pair_index=0, target_load=1.5,
                         bottleneck_rate=config.btl_bw)

    def test_generates_flows(self):
        sim, net, config, ct = make_ct()
        ct.start()
        sim.run(until=20.0)
        assert len(ct.flows) > 5
        assert ct.completed_flows > 0

    def test_offered_load_close_to_target(self):
        sim, net, config, ct = make_ct(load=0.3, seed=7)
        ct.start()
        horizon = 60.0
        sim.run(until=horizon)
        offered = ct.offered_bytes() / (config.btl_bw * horizon)
        assert offered == pytest.approx(0.3, abs=0.15)

    def test_deterministic_for_seed(self):
        counts = []
        for _ in range(2):
            sim, net, config, ct = make_ct(seed=11)
            ct.start()
            sim.run(until=15.0)
            counts.append((len(ct.flows), ct.offered_bytes()))
        assert counts[0] == counts[1]

    def test_stop_halts_arrivals(self):
        sim, net, config, ct = make_ct()
        ct.start()
        sim.run(until=5.0)
        ct.stop()
        n = len(ct.flows)
        sim.run(until=15.0)
        assert len(ct.flows) == n

    def test_foreground_flow_survives_cross_traffic(self):
        sim, net, config, ct = make_ct(load=0.4, seed=3)
        transfers = launch_flows(
            sim, net, [FlowSpec(1, 4_000_000, "cubic+suss", start_time=5.0)])
        ct.start()
        sim.run(until=60.0)
        assert transfers[1].completed
        # Contention must actually slow the foreground flow vs an idle path.
        idle_sim = Simulator()
        idle_net = config.build(idle_sim)
        idle = launch_flows(idle_sim, idle_net,
                            [FlowSpec(1, 4_000_000, "cubic+suss",
                                      start_time=5.0)])
        idle_sim.run(until=60.0)
        assert transfers[1].fct >= idle[1].fct
