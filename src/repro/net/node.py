"""Network nodes: hosts (endpoints) and routers (forwarders)."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Protocol

from repro.net.link import Link
from repro.net.packet import Packet
from repro.obs import records as obsrec
from repro.sim.engine import SimulationError


class Endpoint(Protocol):
    """A transport endpoint attached to a host (TCP sender or receiver)."""

    def on_packet(self, packet: Packet) -> None: ...


class Host:
    """An end host: owns an uplink and dispatches packets to endpoints.

    Endpoints register with :meth:`attach` under their flow id; inbound
    packets are delivered to the endpoint registered for their flow.
    """

    # No __slots__ here on purpose: fault-injection tests replace
    # ``host.receive`` per instance (delay/reorder shims), which needs an
    # instance __dict__.  Hosts are per-topology objects, not per-packet,
    # so the memory/speed win would be negligible anyway.

    def __init__(self, name: str) -> None:
        self.name = name
        self._endpoints: Dict[int, Endpoint] = {}
        self.packets_received = 0
        self.unroutable = 0
        self.uplink = None

    @property
    def uplink(self) -> Optional[Link]:
        return self._uplink

    @uplink.setter
    def uplink(self, link: Optional[Link]) -> None:
        # The host meets its simulator through its uplink, so what the
        # per-packet paths need from it — its sanitizer and its obs
        # gate, both fixed when the simulator was built — is resolved
        # here, once.  Stub uplinks in unit tests may lack .sim:
        # unsanitized, untraced.
        self._uplink = link
        sim = self._sim = getattr(link, "sim", None)
        self._sanitizer = sim.sanitizer if sim is not None else None
        obs = sim.obs if sim is not None else None
        self._recv_obs = None if obs is None else obs.gate(obsrec.PKT_RECV)

    def attach(self, flow_id: int, endpoint: Endpoint) -> None:
        if flow_id in self._endpoints:
            raise ValueError(f"flow {flow_id} already attached to host {self.name}")
        self._endpoints[flow_id] = endpoint

    def detach(self, flow_id: int) -> None:
        self._endpoints.pop(flow_id, None)

    def transmit(self, packet: Packet) -> bool:
        """Send a packet out of this host's uplink."""
        if self._uplink is None:
            raise RuntimeError(f"host {self.name} has no uplink")
        if self._sanitizer is not None:
            # Conservation accounting: this is the only way packets enter
            # the network; router hops re-enter links but not here.
            self._sanitizer.note_network_send()
        return self._uplink.send(packet)

    def receive(self, packet: Packet) -> None:
        self.packets_received += 1
        if self._sanitizer is not None:
            self._sanitizer.note_network_deliver()
        if self._recv_obs is not None:
            self._recv_obs.emit(self._sim.now, obsrec.PKT_RECV, packet.flow_id,
                                host=self.name, ptype=packet.kind.name,
                                seq=packet.seq, size=packet.size)
        endpoint = self._endpoints.get(packet.flow_id)
        if endpoint is None:
            self.unroutable += 1
            return
        endpoint.on_packet(packet)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Host {self.name}>"


class Router:
    """Static-routing packet forwarder.

    ``add_route(dst_host_name, link)`` installs a next-hop link; packets
    for unknown destinations fall back to ``default_route`` when set.

    A ``strict`` router raises :class:`SimulationError` instead of
    silently counting unroutable packets — topologies built from an
    explicit spec (``repro.net.topogen``) use this, because there a
    missing next-hop is a builder/routing bug, not background noise.
    """

    __slots__ = ("name", "_routes", "default_route", "packets_forwarded",
                 "unroutable", "strict")

    def __init__(self, name: str, strict: bool = False) -> None:
        self.name = name
        self._routes: Dict[str, Link] = {}
        self.default_route: Optional[Link] = None
        self.packets_forwarded = 0
        self.unroutable = 0
        self.strict = strict

    def add_route(self, dst: str, link: Link) -> None:
        self._routes[dst] = link

    def routes(self) -> Dict[str, Link]:
        """Snapshot of the installed next-hop table (dst -> link)."""
        return dict(self._routes)

    def _no_route_error(self, dst: str) -> SimulationError:
        known = ", ".join(sorted(self._routes)) or "<none>"
        return SimulationError(
            f"router {self.name} has no route for destination {dst!r} "
            f"(routes: {known}; no default route)")

    def receive(self, packet: Packet) -> None:
        link = self._routes.get(packet.dst, self.default_route)
        if link is None:
            self.unroutable += 1
            if self.strict:
                raise self._no_route_error(packet.dst)
            return
        self.packets_forwarded += 1
        link.send(packet)  # a queue-full drop is the link's to count

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Router {self.name}>"
