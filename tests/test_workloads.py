"""Unit tests for flow specs, launch helpers, and the scenario catalogue."""

import pytest

from repro.sim import RngRegistry, Simulator
from repro.workloads import (
    INTERNET_SCENARIOS,
    LINK_NAMES,
    MB,
    SERVER_NAMES,
    FlowSpec,
    LocalTestbedConfig,
    get_scenario,
    launch_flows,
    stability_workload,
    staggered_joiners,
)


class TestScenarioCatalogue:
    def test_exactly_28_scenarios(self):
        assert len(INTERNET_SCENARIOS) == 28
        assert len(SERVER_NAMES) == 7
        assert len(LINK_NAMES) == 4

    def test_lookup(self):
        sc = get_scenario("google-tokyo", "wifi")
        assert sc.server == "google-tokyo"
        assert sc.link_type == "wifi"

    def test_unknown_raises(self):
        with pytest.raises(KeyError):
            get_scenario("aws-virginia", "wifi")

    def test_client_locations_follow_link_type(self):
        for sc in INTERNET_SCENARIOS.values():
            expected = "sweden" if sc.link_type in ("5g", "wired") else "nz"
            assert sc.client_location == expected

    def test_wireless_has_variation_wired_does_not(self):
        for sc in INTERNET_SCENARIOS.values():
            if sc.link_type == "wired":
                assert sc.bw_variation == 0.0
            else:
                assert sc.bw_variation > 0.0

    def test_oracle_buffers_shallower_than_google(self):
        google = get_scenario("google-tokyo", "wired")
        oracle = get_scenario("oracle-london", "wired")
        assert oracle.buffer_bdp < google.buffer_bdp

    def test_bdp_and_buffer_positive(self):
        for sc in INTERNET_SCENARIOS.values():
            assert sc.bdp > 0
            assert sc.buffer_bytes >= 3000

    def test_build_is_reproducible(self):
        sc = get_scenario("google-tokyo", "4g")
        profiles = []
        for _ in range(2):
            profile = sc.bandwidth_profile(RngRegistry(3))
            profiles.append([profile.rate_at(t * 0.3) for t in range(20)])
        assert profiles[0] == profiles[1]

    def test_build_creates_single_pair(self):
        sim = Simulator()
        net = get_scenario("nz-campus", "wired").build(sim)
        assert len(net.servers) == 1 and len(net.clients) == 1


class TestLocalTestbed:
    def test_defaults(self):
        config = LocalTestbedConfig()
        assert config.btl_bw == 50 * 125_000
        assert config.buffer_bytes > 0

    def test_buffer_scales_with_bdp(self):
        small = LocalTestbedConfig(buffer_bdp=1.0)
        big = LocalTestbedConfig(buffer_bdp=2.0)
        assert big.buffer_bytes == 2 * small.buffer_bytes

    def test_reference_rtt_override(self):
        config = LocalTestbedConfig(rtts=(0.01, 0.2, 0.01, 0.01, 0.01),
                                    reference_rtt=0.1)
        expected = int(1.0 * 50 * 125_000 * 0.1)
        assert config.buffer_bytes == expected

    def test_build(self):
        sim = Simulator()
        net = LocalTestbedConfig().build(sim)
        assert len(net.servers) == 5


class TestFlowSpecs:
    def test_staggered_joiners(self):
        specs = staggered_joiners(5, 2 * MB, "cubic", interval=2.0)
        assert [s.start_time for s in specs] == [0.0, 2.0, 4.0, 6.0, 8.0]
        assert {s.flow_id for s in specs} == {1, 2, 3, 4, 5}

    def test_stability_workload_layout(self):
        specs = stability_workload(100 * MB, "bbr", 2 * MB, "cubic+suss",
                                   n_small=12)
        assert specs[0].pair_index == 0
        assert specs[0].cc == "bbr"
        small = specs[1:]
        assert len(small) == 12
        assert all(s.cc == "cubic+suss" for s in small)
        # Small flows cycle over pairs 1-4.
        assert {s.pair_index for s in small} == {1, 2, 3, 4}
        starts = [s.start_time for s in small]
        assert starts == sorted(starts)

    def test_launch_assigns_pairs(self):
        sim = Simulator()
        net = LocalTestbedConfig().build(sim)
        specs = staggered_joiners(3, 1 * MB, "cubic")
        transfers = launch_flows(sim, net, specs)
        assert set(transfers) == {1, 2, 3}
        assert transfers[2].sender.host is net.servers[1]

    def test_launch_rejects_bad_pair(self):
        sim = Simulator()
        net = LocalTestbedConfig().build(sim)
        with pytest.raises(ValueError):
            launch_flows(sim, net, [FlowSpec(1, MB, "cubic", pair_index=9)])

    def test_two_flows_share_a_pair(self):
        sim = Simulator()
        net = LocalTestbedConfig().build(sim)
        specs = [FlowSpec(1, MB, "cubic", pair_index=0),
                 FlowSpec(2, MB, "cubic", pair_index=0)]
        transfers = launch_flows(sim, net, specs)
        sim.run(until=30.0)
        assert all(t.completed for t in transfers.values())
