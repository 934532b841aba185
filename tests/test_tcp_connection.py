"""Tests for connection wiring (open_transfer) and its options."""

import pytest

from repro.cc import Cubic, create
from repro.net import bdp_bytes, build_dumbbell, build_path
from repro.sim import Simulator
from repro.tcp import open_transfer

from tests.helpers import MSS


def path(sim, rate=12_500_000, rtt=0.1):
    return build_path(sim, rate, rtt, bdp_bytes(rate, rtt))


class TestOpenTransfer:
    def test_cc_by_name_or_instance(self):
        sim = Simulator()
        net = path(sim)
        by_name = open_transfer(sim, net.servers[0], net.clients[0], 1,
                                10 * MSS, "cubic")
        assert isinstance(by_name.sender.cc, Cubic)
        instance = create("cubic+suss", k_max=2)
        by_instance = open_transfer(sim, net.servers[0], net.clients[0], 2,
                                    10 * MSS, instance)
        assert by_instance.sender.cc is instance

    def test_start_time_honoured(self):
        sim = Simulator()
        net = path(sim)
        xfer = open_transfer(sim, net.servers[0], net.clients[0], 1,
                             10 * MSS, "cubic", start_time=3.0)
        sim.run(until=2.9)
        assert not xfer.sender.started
        sim.run(until=60.0)
        assert xfer.completed
        assert xfer.sender.start_time == pytest.approx(3.0)

    def test_start_time_in_past_starts_now(self):
        sim = Simulator()
        sim.schedule(5.0, lambda: None)
        sim.run()
        net = path(sim)
        xfer = open_transfer(sim, net.servers[0], net.clients[0], 1,
                             10 * MSS, "cubic", start_time=1.0)
        sim.run(until=60.0)
        assert xfer.completed

    def test_custom_mss(self):
        sim = Simulator()
        net = path(sim)
        xfer = open_transfer(sim, net.servers[0], net.clients[0], 1,
                             100 * 500, "cubic", mss=500)
        sim.run(until=60.0)
        assert xfer.completed
        assert xfer.sender.mss == 500

    def test_custom_iw(self):
        sim = Simulator()
        net = path(sim)
        xfer = open_transfer(sim, net.servers[0], net.clients[0], 1,
                             1000 * MSS, "cubic", iw_segments=2)
        sim.run(until=0.12)
        assert xfer.sender.snd_nxt == 2 * MSS

    def test_telemetry_optional(self):
        sim = Simulator()
        net = path(sim)
        xfer = open_transfer(sim, net.servers[0], net.clients[0], 1,
                             20 * MSS, "cubic")  # nothing observing
        sim.run(until=60.0)
        assert xfer.completed

    def test_fct_none_until_done(self):
        sim = Simulator()
        net = path(sim)
        xfer = open_transfer(sim, net.servers[0], net.clients[0], 1,
                             2000 * MSS, "cubic")
        sim.run(until=0.3)
        assert xfer.fct is None
        assert not xfer.completed


class TestMultiPairWiring:
    def test_flows_isolated_per_pair(self):
        sim = Simulator()
        net = build_dumbbell(sim, 2, 1e9, [0.05, 0.05], 10 ** 7)
        a = open_transfer(sim, net.servers[0], net.clients[0], 1,
                          50 * MSS, "cubic")
        b = open_transfer(sim, net.servers[1], net.clients[1], 2,
                          50 * MSS, "cubic")
        sim.run(until=30.0)
        assert a.completed and b.completed
        assert a.receiver.bytes_delivered == 50 * MSS
        assert b.receiver.bytes_delivered == 50 * MSS

    def test_duplicate_flow_id_same_host_rejected(self):
        sim = Simulator()
        net = path(sim)
        open_transfer(sim, net.servers[0], net.clients[0], 1, MSS, "cubic")
        with pytest.raises(ValueError):
            open_transfer(sim, net.servers[0], net.clients[0], 1, MSS,
                          "cubic")


class TestAll28Scenarios:
    def test_every_scenario_completes_a_small_download(self):
        from repro.experiments.runner import run_single_flow
        from repro.workloads import INTERNET_SCENARIOS
        for name, scenario in INTERNET_SCENARIOS.items():
            result = run_single_flow(scenario, "cubic+suss", 300_000, seed=0)
            assert result.completed, f"{name} did not complete"
            assert result.fct > scenario.rtt  # sanity: at least one RTT
