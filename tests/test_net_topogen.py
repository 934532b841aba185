"""Topogen: declarative scenario specs, SPF routing, builders, mixes.

The committed golden file (``tests/golden/topogen_specs.json``,
regenerable with ``repro topo golden``) pins every registered scenario's
canonical spec JSON, content hash, and SPF forwarding tables — any
unintended change to a builder or to the routing computation fails here
byte-for-byte.
"""

import json
import random
from pathlib import Path

import pytest

from repro.net.topogen import (
    SCENARIO_CLASSES,
    CrossTrafficPlan,
    FlowPath,
    LinkSpec,
    NodeSpec,
    TopologySpec,
    build_topology,
    get_topo_scenario,
    lfn_satellite,
    registered_specs,
    routing_table_json,
    spf_routes,
)
from repro.net.topogen.spec import TopologySpecError
from repro.sim import SimulationError, Simulator
from repro.sim.rng import RngRegistry
from repro.analysis.sanitize import SimSanitizer
from repro.workloads.flows import FlowSpec
from repro.workloads.mixes import MIXES, MixTraffic, get_mix, place_cross_traffic
from repro.workloads.topo import launch_topo_flows, resolve_topo
from tests.reference_engine import ReferenceSimulator

GOLDEN = Path(__file__).parent / "golden" / "topogen_specs.json"

MBPS = 125_000.0  # bytes/sec


def tiny_spec(**overrides):
    """Smallest valid routed topology: s0 -> r0 -> r1 -> c0."""
    fields = dict(
        name="tiny",
        scenario_class="parking_lot",
        nodes=(NodeSpec("s0"), NodeSpec("c0"),
               NodeSpec("r0", kind="router"), NodeSpec("r1", kind="router")),
        links=(LinkSpec("s0", "r0", rate=10 * MBPS, delay=1e-6),
               LinkSpec("r0", "s0", rate=10 * MBPS, delay=1e-6),
               LinkSpec("r0", "r1", rate=MBPS, delay=0.01,
                        buffer_bytes=30_000),
               LinkSpec("r1", "r0", rate=10 * MBPS, delay=0.01),
               LinkSpec("r1", "c0", rate=10 * MBPS, delay=1e-6),
               LinkSpec("c0", "r1", rate=10 * MBPS, delay=1e-6)),
        flows=(FlowPath(server="s0", client="c0"),),
    )
    fields.update(overrides)
    return TopologySpec(**fields)


class TestSpecValidation:
    def test_minimal_spec_validates(self):
        spec = tiny_spec()
        assert spec.validate() is spec
        assert spec.hosts() == ["c0", "s0"]
        assert spec.router_names() == ["r0", "r1"]

    def test_duplicate_node_names_rejected(self):
        with pytest.raises(TopologySpecError, match="duplicate"):
            tiny_spec(nodes=(NodeSpec("s0"), NodeSpec("s0"),
                             NodeSpec("r0", kind="router"),
                             NodeSpec("r1", kind="router"))).validate()

    def test_link_to_unknown_node_rejected(self):
        spec = tiny_spec()
        bad = spec.links + (LinkSpec("r1", "ghost", rate=MBPS, delay=0.01),)
        with pytest.raises(TopologySpecError):
            tiny_spec(links=bad).validate()

    def test_flow_endpoints_must_be_hosts(self):
        with pytest.raises(TopologySpecError):
            tiny_spec(flows=(FlowPath(server="r0", client="c0"),)).validate()

    def test_unreachable_pair_rejected(self):
        # drop the r0->r1 forward link: c0 unreachable from s0
        spec = tiny_spec()
        links = tuple(l for l in spec.links if l.key != ("r0", "r1"))
        with pytest.raises(TopologySpecError, match="no directed path"):
            tiny_spec(links=links).validate()

    def test_bad_link_parameters_rejected(self):
        with pytest.raises(TopologySpecError):
            LinkSpec("a", "b", rate=-1.0, delay=0.01)
        with pytest.raises(TopologySpecError):
            LinkSpec("a", "b", rate=MBPS, delay=-0.01)
        with pytest.raises(TopologySpecError):
            LinkSpec("a", "b", rate=MBPS, delay=0.01, loss=1.5)
        with pytest.raises(TopologySpecError):
            LinkSpec("a", "b", rate=MBPS, delay=0.01, queue="red")
        with pytest.raises(TopologySpecError):
            LinkSpec("a", "a", rate=MBPS, delay=0.01)

    def test_empty_scenario_class_rejected(self):
        """The class is free-form taxonomy, but it must be present."""
        with pytest.raises(TopologySpecError):
            tiny_spec(scenario_class="").validate()
        assert tiny_spec(scenario_class="exotic").validate()

    def test_unknown_traffic_mix_rejected(self):
        with pytest.raises(TopologySpecError):
            tiny_spec(cross_traffic=(
                CrossTrafficPlan(server="s0", client="c0",
                                 mix="carrier-pigeon"),)).validate()


class TestSpecHashing:
    def test_node_and_link_order_is_canonicalised(self):
        spec = tiny_spec()
        shuffled = tiny_spec(nodes=tuple(reversed(spec.nodes)),
                             links=tuple(reversed(spec.links)))
        assert shuffled.content_hash == spec.content_hash
        assert shuffled.to_json() == spec.to_json()

    def test_json_roundtrip_preserves_hash(self):
        spec = tiny_spec()
        clone = TopologySpec.from_json(spec.to_json())
        assert clone.content_hash == spec.content_hash
        assert clone.canonical() == spec.canonical()

    def test_any_field_change_moves_the_hash(self):
        base = tiny_spec().content_hash
        assert tiny_spec(name="other").content_hash != base
        slower = tiny_spec()
        links = tuple(l if l.key != ("r0", "r1")
                      else LinkSpec("r0", "r1", rate=2 * MBPS, delay=0.01,
                                    buffer_bytes=30_000)
                      for l in slower.links)
        assert tiny_spec(links=links).content_hash != base

    def test_resolve_topo_accepts_all_three_shapes(self):
        spec = get_topo_scenario("mesh-diamond")
        assert resolve_topo("mesh-diamond").canonical() == spec.canonical()
        assert resolve_topo(spec) is spec
        assert resolve_topo(spec.canonical()).canonical() == \
            spec.canonical()


class TestSpf:
    def test_routing_tables_byte_identical_across_builds(self):
        """Acceptance: same spec -> byte-identical forwarding tables."""
        for name in registered_specs():
            a = routing_table_json(get_topo_scenario(name))
            b = routing_table_json(get_topo_scenario(name))
            c = routing_table_json(
                TopologySpec.from_json(get_topo_scenario(name).to_json()))
            assert a == b == c, name

    def test_diamond_prefers_the_fast_branch(self):
        spec = get_topo_scenario("mesh-diamond")
        routes = spf_routes(spec)
        # ra reaches c0 through the low-delay branch (rb), not rc
        assert routes["ra"]["c0"] == "rb"
        assert routes["rd"]["s0"] == "rb"

    def test_hosts_are_never_transit_nodes(self):
        for name, spec in registered_specs().items():
            hosts = set(spec.hosts())
            for router, table in spf_routes(spec).items():
                for dst, next_hop in table.items():
                    if next_hop in hosts:
                        assert next_hop == dst, (
                            f"{name}: {router} routes {dst} through "
                            f"host {next_hop}")

    def test_every_router_covers_every_host(self):
        for name, spec in registered_specs().items():
            routes = spf_routes(spec)
            for router in spec.router_names():
                assert set(routes[router]) == set(spec.hosts()), (
                    f"{name}: {router} table incomplete")


class TestGoldenSpecs:
    """Satellite: golden gate over the registered scenario catalogue."""

    @pytest.fixture(scope="class")
    def golden(self):
        with open(GOLDEN, "r", encoding="utf-8") as fh:
            return json.load(fh)

    def test_covers_registry_exactly(self, golden):
        assert set(golden) == set(registered_specs())

    def test_content_hashes_pinned(self, golden):
        for name, spec in registered_specs().items():
            assert spec.content_hash == golden[name]["content_hash"], (
                f"{name}: spec changed; regenerate deliberately with "
                f"`repro topo golden`")

    def test_canonical_specs_pinned(self, golden):
        for name, spec in registered_specs().items():
            assert spec.canonical() == golden[name]["spec"], name

    def test_routing_tables_pinned(self, golden):
        for name, spec in registered_specs().items():
            assert json.loads(routing_table_json(spec)) == \
                golden[name]["routes"], name

    def test_every_scenario_class_is_represented(self, golden):
        classes = {g["spec"]["scenario_class"] for g in golden.values()}
        assert classes == set(SCENARIO_CLASSES)


class TestBuilders:
    @pytest.mark.parametrize("name", sorted(registered_specs()))
    def test_builds_and_matches_spec(self, name):
        spec = get_topo_scenario(name)
        built = build_topology(Simulator(), spec, rng=RngRegistry(1))
        assert set(built.hosts) == set(spec.hosts())
        assert set(built.routers) == set(spec.router_names())
        assert set(built.links) == set(l.key for l in spec.links)
        flow = spec.flows[0]
        assert built.path_rtt(flow.server, flow.client) > 0.0
        assert built.bottleneck_link(flow.server, flow.client) is not None

    def test_lfn_rtt_floor_enforced(self):
        with pytest.raises(ValueError, match="300 ms"):
            lfn_satellite(rtt=0.2)

    def test_lfn_satellite_is_a_long_fat_network(self):
        built = build_topology(Simulator(), get_topo_scenario("lfn-satellite"),
                               rng=RngRegistry(1))
        assert built.path_rtt("s0", "c0") >= 0.300  # the LFN threshold

    def test_strict_routers_fail_loudly_on_unroutable(self):
        spec = get_topo_scenario("mesh-diamond")
        built = build_topology(Simulator(), spec, rng=RngRegistry(1))
        from repro.net.packet import Packet, PacketKind
        stray = Packet(flow_id=9, src="s0", dst="not-a-node",
                       kind=PacketKind.DATA, payload=100)
        with pytest.raises(SimulationError):
            built.routers["ra"].receive(stray)

    def test_bottleneck_is_minimum_rate_on_path(self):
        spec = get_topo_scenario("multi-bottleneck-4")
        built = build_topology(Simulator(), spec, rng=RngRegistry(1))
        rates = [l.rate for l in spec.links]
        flow = spec.flows[0]
        btl = built.bottleneck_link(flow.server, flow.client)
        assert btl.bandwidth.mean_rate() == min(rates)


class TestTwoFlowSims:
    """Acceptance: a 2-flow sanitized sim per scenario class, on the
    shipped engine and on the reference oracle, identical results."""

    SIZE = 60_000

    def _run(self, name, engine):
        sim = engine(sanitizer=SimSanitizer(), obs=None)
        spec = get_topo_scenario(name)
        built = build_topology(sim, spec, rng=RngRegistry(7))
        pairs = len(spec.flows)
        flows = [FlowSpec(flow_id=1, size_bytes=self.SIZE, cc="cubic+suss",
                          pair_index=0),
                 FlowSpec(flow_id=2, size_bytes=self.SIZE, cc="cubic",
                          start_time=0.01, pair_index=1 if pairs > 1 else 0)]
        transfers = launch_topo_flows(sim, built, flows)
        sim.run(until=120.0)
        for t in transfers.values():
            assert t.completed, (name, engine.__name__)
        return tuple(t.fct for t in transfers.values())

    @pytest.mark.parametrize("name", sorted(registered_specs()))
    def test_backends_agree_exactly(self, name):
        classic = self._run(name, ReferenceSimulator)
        fast = self._run(name, Simulator)
        assert classic == fast, name
        assert all(f > 0 for f in classic)


class TestMixes:
    def test_get_mix_unknown(self):
        with pytest.raises(KeyError):
            get_mix("carrier-pigeon")

    def test_samplers_are_deterministic_and_clamped(self):
        for name, mix in MIXES.items():
            a = [mix.sample_size(random.Random(42)) for _ in range(50)]
            b = [mix.sample_size(random.Random(42)) for _ in range(50)]
            assert a == b, name
            assert all(1_000 <= s <= 20_000_000 for s in a), name

    def test_arrival_rate_targets_load(self):
        mix = get_mix("web")
        rate = mix.arrival_rate(0.2, 10 * MBPS)
        assert rate == pytest.approx(0.2 * 10 * MBPS / mix.mean_size)
        # rpc bursts launch several flows per arrival -> fewer arrivals
        rpc = get_mix("rpc")
        assert rpc.burst > 1
        assert rpc.arrival_rate(0.2, 10 * MBPS) == pytest.approx(
            0.2 * 10 * MBPS / (rpc.mean_size * rpc.burst))

    def test_mix_traffic_requires_injected_rng(self):
        sim = Simulator()
        built = build_topology(sim, get_topo_scenario("mesh-diamond"),
                               rng=RngRegistry(1))
        with pytest.raises(ValueError, match="RngRegistry"):
            MixTraffic(sim, built.hosts["s1"], built.hosts["c1"],
                       get_mix("web"), 0.2, 5 * MBPS, rng=None)

    def test_place_cross_traffic_zero_load_is_empty(self):
        sim = Simulator()
        built = build_topology(sim, get_topo_scenario("parking-lot-3"),
                               rng=RngRegistry(1))
        assert place_cross_traffic(built, RngRegistry(1),
                                   load_scale=0.0) == []

    def test_place_cross_traffic_generates_flows(self):
        sim = Simulator()
        built = build_topology(sim, get_topo_scenario("parking-lot-3"),
                               rng=RngRegistry(3))
        gens = place_cross_traffic(built, RngRegistry(3))
        assert len(gens) == len(built.spec.cross_traffic)
        sim.run(until=5.0)
        for gen in gens:
            gen.stop()
        assert sum(g.completed_flows for g in gens) > 0
        assert sum(g.offered_bytes() for g in gens) > 0


class TestTopoFlowJob:
    def test_job_hash_is_stable_across_spec_shapes(self):
        from repro.campaign.spec import topo_flow_job
        by_name = topo_flow_job("mesh-diamond", "cubic", 100_000, seed=1)
        by_spec = topo_flow_job(get_topo_scenario("mesh-diamond"), "cubic",
                                100_000, seed=1)
        by_dict = topo_flow_job(
            get_topo_scenario("mesh-diamond").canonical(), "cubic",
            100_000, seed=1)
        assert by_name.job_hash == by_spec.job_hash == by_dict.job_hash

    def test_default_knobs_stay_out_of_the_hash(self):
        """cross_load=1.0 / cross_cc=cubic must not appear in params, so
        pre-existing hashes stay valid when defaults are used."""
        from repro.campaign.spec import topo_flow_job
        spec = topo_flow_job("mesh-diamond", "cubic", 100_000, seed=1)
        assert "cross_load" not in spec.params
        assert "cross_cc" not in spec.params
        tweaked = topo_flow_job("mesh-diamond", "cubic", 100_000, seed=1,
                                cross_load=0.5)
        assert tweaked.job_hash != spec.job_hash

    def test_seeds_shift_the_hash(self):
        from repro.campaign.spec import topo_flow_job
        a = topo_flow_job("lfn-satellite", "cubic", 100_000, seed=1)
        b = topo_flow_job("lfn-satellite", "cubic", 100_000, seed=2)
        assert a.job_hash != b.job_hash

    def test_job_runs_through_the_registry(self):
        from repro.campaign.jobs import JOB_KINDS
        from repro.campaign.spec import topo_flow_job
        spec = topo_flow_job("mesh-diamond", "cubic+suss", 50_000, seed=1,
                             cross_load=0.0)
        value = JOB_KINDS[spec.kind](spec.params)
        assert value["completed"]
        assert value["fct"] > 0
        assert value["scenario_class"] == "mesh"
        assert value["topo_hash"] == \
            get_topo_scenario("mesh-diamond").content_hash


class TestRunTopoFlow:
    def test_deterministic_and_complete(self):
        from repro.experiments.runner import run_topo_flow
        a = run_topo_flow("mesh-diamond", "cubic", 50_000, seed=5)
        b = run_topo_flow("mesh-diamond", "cubic", 50_000, seed=5)
        assert a["completed"] and b["completed"]
        assert a["fct"] == b["fct"]
        assert a["rtt"] > 0
        assert a["cross_flows"] >= 1
