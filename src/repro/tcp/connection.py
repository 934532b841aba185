"""Connection wiring: create a sender/receiver pair over a topology.

`open_transfer` is the simulation analogue of the paper's measurement unit:
"a client downloads a file of N bytes from a server".  It instantiates the
server-side :class:`TcpSender` (where SUSS lives — it is a sender-side
add-on) and the client-side :class:`TcpReceiver`, and schedules the
connection start.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Union

from repro.cc import base as cc_base
from repro.cc.base import CongestionControl
from repro.net.node import Host
from repro.net.packet import DEFAULT_MSS
from repro.sim.engine import Simulator
from repro.tcp.receiver import TcpReceiver
from repro.tcp.sender import DEFAULT_IW_SEGMENTS, TcpSender


@dataclass
class Transfer:
    """A one-way bulk transfer: server-side sender + client-side receiver."""

    sender: TcpSender
    receiver: TcpReceiver

    @property
    def completed(self) -> bool:
        return self.sender.completed

    @property
    def fct(self) -> Optional[float]:
        return self.sender.fct


def open_transfer(
    sim: Simulator,
    server: Host,
    client: Host,
    flow_id: int,
    size_bytes: int,
    cc: Union[str, CongestionControl],
    start_time: float = 0.0,
    mss: int = DEFAULT_MSS,
    iw_segments: int = DEFAULT_IW_SEGMENTS,
    rwnd: int = 1 << 30,
    ecn: bool = False,
    delayed_ack: bool = False,
    on_complete: Optional[Callable[[TcpSender], None]] = None,
) -> Transfer:
    """Set up a download of ``size_bytes`` from ``server`` to ``client``.

    ``cc`` may be a registered algorithm name (e.g. ``"cubic"``,
    ``"cubic+suss"``, ``"bbr"``) or an already-constructed
    :class:`CongestionControl` instance.
    """
    if isinstance(cc, str):
        cc = cc_base.create(cc)
    receiver = TcpReceiver(sim, client, peer=server.name, flow_id=flow_id,
                           delayed_ack=delayed_ack)
    sender = TcpSender(sim, server, peer=client.name, flow_id=flow_id,
                       total_bytes=size_bytes, cc=cc, mss=mss,
                       iw_segments=iw_segments, rwnd=rwnd, ecn=ecn,
                       on_complete=on_complete)
    if start_time <= sim.now:
        sim.schedule(0.0, sender.start)
    else:
        sim.schedule_at(start_time, sender.start)
    return Transfer(sender=sender, receiver=receiver)
