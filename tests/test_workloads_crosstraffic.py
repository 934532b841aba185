"""Poisson cross traffic on one dumbbell pair: :class:`MixTraffic` with
the ``crosstraffic`` experiment's mix (``test_net_topogen.py::TestMixes``
covers the registered mixes on routed topologies)."""

import random

import pytest

from repro.experiments.ext_crosstraffic import CROSS_MIX
from repro.sim import Simulator
from repro.workloads import FlowSpec, LocalTestbedConfig, launch_flows
from repro.workloads.mixes import MixTraffic


def make_ct(load=0.3, seed=1, bottleneck_mbps=20.0):
    sim = Simulator()
    config = LocalTestbedConfig(bottleneck_mbps=bottleneck_mbps,
                                rtts=(0.05,) * 5)
    net = config.build(sim)
    ct = MixTraffic(sim, net.servers[4], net.clients[4], CROSS_MIX, load,
                    config.btl_bw, random.Random(seed))
    return sim, net, config, ct


class TestCrossTraffic:
    def test_load_validation(self):
        sim, net, config, _ = make_ct()
        for load in (0.0, 1.0, 1.5, -0.1):
            with pytest.raises(ValueError, match="target_load"):
                MixTraffic(sim, net.servers[0], net.clients[0], CROSS_MIX,
                           load, config.btl_bw, random.Random(1))

    def test_offered_load_close_to_target(self):
        sim, net, config, ct = make_ct(load=0.3, seed=7)
        ct.start()
        horizon = 60.0
        sim.run(until=horizon)
        offered = ct.offered_bytes() / (config.btl_bw * horizon)
        assert offered == pytest.approx(0.3, abs=0.15)

    def test_deterministic_for_seed(self):
        runs = []
        for _ in range(2):
            sim, net, config, ct = make_ct(seed=11)
            ct.start()
            sim.run(until=15.0)
            runs.append([(f.sender.flow_id, f.sender.total_bytes, f.fct)
                         for f in ct.flows])
        assert runs[0] == runs[1] and len(runs[0]) > 5

    def test_stop_halts_arrivals(self):
        sim, net, config, ct = make_ct()
        ct.start()
        sim.run(until=5.0)
        ct.stop()
        n = len(ct.flows)
        sim.run(until=15.0)
        assert len(ct.flows) == n
        assert ct.completed_flows > 0

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
