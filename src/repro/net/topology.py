"""Topology builders.

The paper uses two physical setups:

* an internet path (server → … → bottleneck → … → client), which is a
  dumbbell with a single pair;
* a local dumbbell testbed: N client–server pairs over two Linux routers,
  with netem shaping (rate / delay / jitter / buffer) on the bottleneck.

:func:`build_dumbbell` constructs either.  Data flows server→client
(downloads); the bottleneck queue sits at the left router's egress, which
is where netem shapes in the testbed.  Per-pair RTTs are realised with
per-pair access-link propagation delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Union

from repro.core.units import Bytes, BytesPerSec, Seconds
from repro.core.units import bdp_bytes  # noqa: F401 (repro.net.bdp_bytes)
from repro.net.link import Link
from repro.net.netem import BandwidthProfile, ConstantBandwidth, JitterModel, LossModel
from repro.net.node import Host, Router
from repro.net.packet import HEADER_BYTES
from repro.net.queue import DropTailQueue
from repro.sim.engine import Simulator

#: Propagation delay of each bottleneck link direction (seconds).
BOTTLENECK_PROP_DELAY: Seconds = 0.001


@dataclass
class Dumbbell:
    """Handles to every component of a built dumbbell network."""

    sim: Simulator
    servers: List[Host]
    clients: List[Host]
    left_router: Router
    right_router: Router
    bottleneck_fwd: Link
    bottleneck_rev: Link
    access_links: List[Link] = field(default_factory=list)

    @property
    def bottleneck_queue(self) -> DropTailQueue:
        """The (shaped) buffer in front of the forward bottleneck link."""
        return self.bottleneck_fwd.queue


def build_dumbbell(
    sim: Simulator,
    n_pairs: int,
    bottleneck_rate: Union[BytesPerSec, BandwidthProfile],
    rtts: Sequence[Seconds],
    buffer_bytes: Bytes,
    access_rate: Optional[BytesPerSec] = None,
    jitter: Optional[JitterModel] = None,
    loss: Optional[LossModel] = None,
    queue: Optional[DropTailQueue] = None,
) -> Dumbbell:
    """Build an ``n_pairs`` dumbbell.

    Args:
        sim: simulation engine.
        n_pairs: number of server/client pairs.
        bottleneck_rate: bytes/second (or a :class:`BandwidthProfile`) of the
            shared bottleneck, forward (data) direction.
        rtts: two-way propagation delay per pair, seconds (len == n_pairs).
        buffer_bytes: capacity of the forward bottleneck buffer.
        access_rate: bytes/second of access links; defaults to 10x the
            bottleneck's mean rate so access links never bottleneck.
        jitter: optional per-packet jitter on the forward bottleneck.
        loss: optional random loss on the forward bottleneck.
        queue: optional custom queue (e.g. CoDel) for the forward bottleneck;
            defaults to a drop-tail queue of ``buffer_bytes``.

    Returns:
        A :class:`Dumbbell` with all hosts, routers, and links.
    """
    if len(rtts) != n_pairs:
        raise ValueError("need one RTT per pair")
    profile = (bottleneck_rate if isinstance(bottleneck_rate, BandwidthProfile)
               else ConstantBandwidth(float(bottleneck_rate)))
    if access_rate is None:
        access_rate = 10.0 * profile.mean_rate()
    for rtt in rtts:
        if rtt < 2 * BOTTLENECK_PROP_DELAY:
            raise ValueError(f"rtt {rtt} too small; must exceed "
                             f"{2 * BOTTLENECK_PROP_DELAY}s of bottleneck delay")

    left = Router("r-left")
    right = Router("r-right")

    fwd_queue = queue if queue is not None else DropTailQueue(buffer_bytes, name="btl.fwd.q")
    bottleneck_fwd = Link(sim, right, profile, BOTTLENECK_PROP_DELAY,
                          queue=fwd_queue, jitter=jitter, loss=loss, name="btl.fwd")
    # ACK path: same nominal rate, effectively unconstrained buffer (ACKs are
    # 52 B, so the reverse direction never becomes the bottleneck here).
    bottleneck_rev = Link(sim, left, ConstantBandwidth(profile.mean_rate()),
                          BOTTLENECK_PROP_DELAY,
                          queue=DropTailQueue(10**9, name="btl.rev.q"), name="btl.rev")
    left.default_route = bottleneck_fwd
    right.default_route = bottleneck_rev

    servers: List[Host] = []
    clients: List[Host] = []
    access_links: List[Link] = []
    for i in range(n_pairs):
        per_side = rtts[i] / 2 - BOTTLENECK_PROP_DELAY
        server = Host(f"server{i}")
        client = Host(f"client{i}")
        # Server side: negligible delay (servers sit next to the left router).
        srv_up = Link(sim, left, ConstantBandwidth(access_rate), 1e-6, name=f"srv{i}.up")
        srv_down = Link(sim, server, ConstantBandwidth(access_rate), 1e-6, name=f"srv{i}.down")
        # Client side: carries the pair's propagation delay.
        cli_down = Link(sim, client, ConstantBandwidth(access_rate), per_side,
                        name=f"cli{i}.down")
        cli_up = Link(sim, right, ConstantBandwidth(access_rate), per_side,
                      name=f"cli{i}.up")
        server.uplink = srv_up
        client.uplink = cli_up
        left.add_route(server.name, srv_down)
        right.add_route(client.name, cli_down)
        servers.append(server)
        clients.append(client)
        access_links.extend([srv_up, srv_down, cli_down, cli_up])

    return Dumbbell(sim=sim, servers=servers, clients=clients,
                    left_router=left, right_router=right,
                    bottleneck_fwd=bottleneck_fwd, bottleneck_rev=bottleneck_rev,
                    access_links=access_links)


def build_path(
    sim: Simulator,
    bottleneck_rate: Union[BytesPerSec, BandwidthProfile],
    rtt: Seconds,
    buffer_bytes: Bytes,
    access_rate: Optional[BytesPerSec] = None,
    jitter: Optional[JitterModel] = None,
    loss: Optional[LossModel] = None,
    queue: Optional[DropTailQueue] = None,
) -> Dumbbell:
    """Single server→client path (a one-pair dumbbell)."""
    return build_dumbbell(sim, 1, bottleneck_rate, [rtt], buffer_bytes,
                          access_rate=access_rate, jitter=jitter, loss=loss,
                          queue=queue)
