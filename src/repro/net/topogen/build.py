"""Instantiate a :class:`TopologySpec` into live simulator objects.

:func:`build_topology` validates the spec, creates hosts and (strict)
routers, realises every directed link with its queue discipline and
netem impairments, and installs SPF forwarding tables.  Stochastic link
components draw from named :class:`repro.sim.rng.RngRegistry` streams
(``jitter:<spec>:<src>-><dst>`` etc.), so two builds from the same seed
are identical and adding a link never perturbs another link's stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.net.link import Link
from repro.net.netem import (
    ConstantBandwidth,
    JitterModel,
    LossModel,
    RandomWalkBandwidth,
)
from repro.net.node import Host, Router
from repro.net.queue import CoDelQueue, DropTailQueue
from repro.net.topogen.routing import spf_routes
from repro.net.topogen.spec import (
    UNSHAPED_BUFFER,
    LinkSpec,
    TopologySpec,
    TopologySpecError,
)
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


@dataclass
class BuiltTopology:
    """Handles to every component of a built topogen network."""

    sim: Simulator
    spec: TopologySpec
    hosts: Dict[str, Host]
    routers: Dict[str, Router]
    links: Dict[Tuple[str, str], Link]
    routes: Dict[str, Dict[str, str]] = field(default_factory=dict)

    def node(self, name: str):
        if name in self.hosts:
            return self.hosts[name]
        return self.routers[name]

    def path_links(self, src_host: str, dst_host: str) -> List[Link]:
        """The links a packet from ``src_host`` to ``dst_host`` traverses."""
        if src_host not in self.hosts:
            raise KeyError(f"unknown host {src_host!r}")
        uplink_key = self._uplink_key(src_host)
        path = [self.links[uplink_key]]
        current = uplink_key[1]
        hops = 0
        while current != dst_host:
            table = self.routes.get(current)
            if table is None or dst_host not in table:
                raise TopologySpecError(
                    f"{self.spec.name}: no route from {current} to "
                    f"{dst_host}")
            nxt = table[dst_host]
            path.append(self.links[(current, nxt)])
            current = nxt
            hops += 1
            if hops > len(self.spec.nodes):
                raise TopologySpecError(
                    f"{self.spec.name}: routing loop toward {dst_host}")
        return path

    def _uplink_key(self, host: str) -> Tuple[str, str]:
        for key in self.links:
            if key[0] == host:
                return key
        raise TopologySpecError(f"{self.spec.name}: host {host} has no uplink")

    def bottleneck_link(self, src_host: str, dst_host: str) -> Link:
        """The narrowest link on the forward path (first on ties)."""
        path = self.path_links(src_host, dst_host)
        return min(path, key=lambda link: link.bandwidth.mean_rate())

    def path_rtt(self, src_host: str, dst_host: str) -> float:
        """Two-way propagation delay between two hosts."""
        forward = sum(l.delay for l in self.path_links(src_host, dst_host))
        back = sum(l.delay for l in self.path_links(dst_host, src_host))
        return forward + back


def _make_queue(link: LinkSpec):
    capacity = (link.buffer_bytes if link.buffer_bytes is not None
                else UNSHAPED_BUFFER)
    qname = f"{link.src}->{link.dst}.q"
    if link.queue == "codel":
        return CoDelQueue(capacity, name=qname)
    return DropTailQueue(capacity, name=qname)


def _make_bandwidth(spec_name: str, link: LinkSpec, rng: RngRegistry):
    if link.bw_variation <= 0:
        return ConstantBandwidth(link.rate)
    stream = rng.stream(f"bw:{spec_name}:{link.src}->{link.dst}")
    return RandomWalkBandwidth(link.rate, span=link.bw_variation, rng=stream)


def build_topology(sim: Simulator, spec: TopologySpec,
                   rng: Optional[RngRegistry] = None,
                   strict: bool = True) -> BuiltTopology:
    """Build ``spec`` in ``sim`` and wire SPF forwarding tables.

    Routers are ``strict`` by default: a spec-built network forwarding a
    packet it has no route for is a routing/builder bug and raises
    :class:`repro.sim.SimulationError` instead of silently dropping.
    """
    spec.validate()
    rng = rng or RngRegistry(0)
    hosts: Dict[str, Host] = {}
    routers: Dict[str, Router] = {}
    for node in spec.nodes:
        if node.kind == "host":
            hosts[node.name] = Host(node.name)
        else:
            routers[node.name] = Router(node.name, strict=strict)

    links: Dict[Tuple[str, str], Link] = {}
    for link_spec in spec.links:
        dst_obj = (hosts.get(link_spec.dst) or routers[link_spec.dst])
        jitter = (JitterModel(link_spec.jitter,
                              rng.stream(f"jitter:{spec.name}:"
                                         f"{link_spec.src}->{link_spec.dst}"))
                  if link_spec.jitter > 0 else None)
        loss = (LossModel(link_spec.loss,
                          rng.stream(f"loss:{spec.name}:"
                                     f"{link_spec.src}->{link_spec.dst}"))
                if link_spec.loss > 0 else None)
        links[link_spec.key] = Link(
            sim, dst_obj, _make_bandwidth(spec.name, link_spec, rng),
            link_spec.delay, queue=_make_queue(link_spec),
            jitter=jitter, loss=loss,
            name=f"{link_spec.src}->{link_spec.dst}")

    for (src, dst), link in links.items():
        if src in hosts:
            hosts[src].uplink = link

    routes = spf_routes(spec)
    for router_name, table in routes.items():
        router = routers[router_name]
        for host_name, next_hop in table.items():
            link = links.get((router_name, next_hop))
            if link is None:
                raise TopologySpecError(
                    f"{spec.name}: SPF chose next hop {next_hop} from "
                    f"{router_name} but the spec has no such link")
            router.add_route(host_name, link)

    return BuiltTopology(sim=sim, spec=spec, hosts=hosts, routers=routers,
                         links=links, routes=routes)
