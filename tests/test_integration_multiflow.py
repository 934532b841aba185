"""Integration tests: multiple flows sharing a bottleneck."""

import pytest

from repro.metrics import jain_index
from repro.sim import Simulator
from repro.workloads import (
    MB,
    FlowSpec,
    LocalTestbedConfig,
    launch_flows,
    staggered_joiners,
)


def run_workload(specs, config=None, until=60.0, seed=0):
    sim = Simulator()
    config = config or LocalTestbedConfig(bottleneck_mbps=20.0,
                                          rtts=(0.05,) * 5)
    net = config.build(sim)
    transfers = launch_flows(sim, net, specs)
    sim.run(until=until)
    return sim, net, transfers


class TestSharing:
    def test_two_equal_flows_split_fairly(self):
        specs = [FlowSpec(1, 20 * MB, "cubic"), FlowSpec(2, 20 * MB, "cubic")]
        sim, net, transfers = run_workload(specs, until=45.0)
        assert all(t.completed for t in transfers.values())
        fcts = [t.fct for t in transfers.values()]
        assert max(fcts) / min(fcts) < 1.4

    def test_aggregate_throughput_near_capacity(self):
        specs = [FlowSpec(i + 1, 10 * MB, "cubic") for i in range(4)]
        sim, net, transfers = run_workload(specs, until=60.0)
        assert all(t.completed for t in transfers.values())
        total_bytes = 40 * MB
        busy_until = max(t.fct for t in transfers.values())
        utilization = total_bytes / (2.5e6 * busy_until)
        assert utilization > 0.75

    def test_five_staggered_flows_complete(self):
        specs = staggered_joiners(5, 5 * MB, "cubic")
        sim, net, transfers = run_workload(specs, until=60.0)
        assert all(t.completed for t in transfers.values())

    def test_mixed_cca_coexistence(self):
        specs = [FlowSpec(1, 10 * MB, "cubic"),
                 FlowSpec(2, 10 * MB, "bbr"),
                 FlowSpec(3, 10 * MB, "cubic+suss")]
        sim, net, transfers = run_workload(specs, until=90.0)
        assert all(t.completed for t in transfers.values())

    def test_goodput_fairness_reasonable(self):
        specs = [FlowSpec(i + 1, 15 * MB, "cubic") for i in range(3)]
        sim, net, transfers = run_workload(specs, until=90.0)
        goodputs = [15 * MB / t.fct for t in transfers.values()]
        assert jain_index(goodputs) > 0.85


class TestSussAmongFlows:
    def test_suss_joiner_ramps_faster_than_cubic_joiner(self):
        """The Fig. 15 mechanism, minimally: against two established
        flows, a SUSS newcomer finishes a small download sooner."""
        fcts = {}
        for cc in ("cubic", "cubic+suss"):
            config = LocalTestbedConfig(bottleneck_mbps=20.0,
                                        rtts=(0.1,) * 5, buffer_bdp=2.0)
            specs = [FlowSpec(1, 60 * MB, "cubic"),
                     FlowSpec(2, 60 * MB, "cubic"),
                     FlowSpec(3, 2 * MB, cc, start_time=8.0)]
            sim, net, transfers = run_workload(specs, config,
                                                    until=30.0)
            assert transfers[3].completed
            fcts[cc] = transfers[3].fct
        assert fcts["cubic+suss"] < fcts["cubic"]

    def test_suss_flows_do_not_starve_each_other(self):
        specs = staggered_joiners(4, 5 * MB, "cubic+suss", interval=1.0)
        sim, net, transfers = run_workload(specs, until=60.0)
        assert all(t.completed for t in transfers.values())
        goodputs = [5 * MB / t.fct for t in transfers.values()]
        assert jain_index(goodputs) > 0.7


class TestConservation:
    def test_no_data_invented(self):
        """Receiver never delivers more than the sender put on the wire."""
        specs = [FlowSpec(1, 8 * MB, "cubic"), FlowSpec(2, 8 * MB, "bbr")]
        sim, net, transfers = run_workload(specs, until=60.0)
        for fid, transfer in transfers.items():
            sent_payload = transfer.sender.data_packets_sent
            assert transfer.receiver.bytes_delivered == 8 * MB
            assert sent_payload * 1448 >= 8 * MB

    def test_drops_plus_received_equals_sent(self):
        sim = Simulator()
        config = LocalTestbedConfig(bottleneck_mbps=20.0, rtts=(0.05,) * 5,
                                    buffer_bdp=0.3)
        net = config.build(sim)
        specs = [FlowSpec(1, 10 * MB, "cubic-nohystart")]
        transfers = launch_flows(sim, net, specs)
        sim.run(until=60.0)
        fwd = net.bottleneck_fwd
        drops = fwd.queue.flow_drops[1]
        # Every data packet the sender emitted either crossed the
        # bottleneck or was dropped at its queue.
        assert fwd.packets_sent + drops >= \
            transfers[1].sender.data_packets_sent
        assert drops > 0
