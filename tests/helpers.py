"""Shared test fixtures: tiny networks and instrumented transfers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from repro.cc.base import CongestionControl
from repro.metrics import FlowCollector
from repro.net import Dumbbell, Host, Packet, PacketKind, bdp_bytes, build_path
from repro.net.netem import BandwidthProfile
from repro.obs import Observability
from repro.sim import Simulator
from repro.sim.engine import event_time
from repro.tcp import TcpSender, Transfer, open_transfer

MSS = 1448


@dataclass
class Bench:
    """A single-flow testbench."""

    sim: Simulator
    net: Dumbbell
    transfer: Transfer
    #: the series collector of a ``collect=True`` bench, else None
    telemetry: Optional[FlowCollector]

    @property
    def sender(self):
        return self.transfer.sender

    @property
    def receiver(self):
        return self.transfer.receiver

    @property
    def cc(self):
        return self.transfer.sender.cc

    @property
    def drops(self) -> int:
        """Packets of the flow dropped at the bottleneck queue."""
        return self.net.bottleneck_queue.flow_drops.get(1, 0)

    @property
    def loss_rate(self) -> float:
        sent = self.sender.data_packets_sent
        return self.drops / sent if sent else 0.0

    def run(self, until: float = 300.0) -> "Bench":
        self.sim.run(until=until)
        return self


def make_transfer(cc: Union[str, CongestionControl] = "cubic",
                  size: int = 500 * MSS, rate: float = 12_500_000,
                  rtt: float = 0.1, buffer_bdp: float = 1.0,
                  bandwidth: Optional[BandwidthProfile] = None,
                  obs=None, collect: bool = False,
                  **kwargs) -> Bench:
    """Build a single-path network with one transfer, ready to run.

    ``collect`` attaches a :class:`FlowCollector` (to ``obs``, or to a
    bare bundle when none is given) and returns it as ``telemetry``.
    """
    if collect and obs is None:
        obs = Observability()
    sim = Simulator() if obs is None else Simulator(obs=obs)
    buffer_bytes = max(int(buffer_bdp * bdp_bytes(rate, rtt)), 3000)
    net = build_path(sim, bandwidth if bandwidth is not None else rate,
                     rtt, buffer_bytes)
    telemetry = FlowCollector(sim.obs) if collect else None
    transfer = open_transfer(sim, net.servers[0], net.clients[0], flow_id=1,
                             size_bytes=size, cc=cc, **kwargs)
    return Bench(sim=sim, net=net, transfer=transfer, telemetry=telemetry)


class Wire:
    """Stands in for a host's uplink and keeps everything transmitted."""

    def __init__(self, host: Host) -> None:
        self.sent = []
        host.uplink = self

    def send(self, packet: Packet) -> bool:
        self.sent.append(packet)
        return True

    @property
    def acks(self):
        return [p for p in self.sent if p.kind is PacketKind.ACK]

    @property
    def last(self):
        return self.sent[-1]

    @property
    def data(self):
        """``(seq, size, retransmit)`` of every DATA packet, in order."""
        return [(p.seq, p.payload, p.retransmit) for p in self.sent
                if p.kind is PacketKind.DATA]


class FixedWindow(CongestionControl):
    """A congestion control that does nothing: ``cwnd`` is what you set.
    ``rto_times`` keeps the instant of every timeout it is told of."""

    name = "fixed-window"

    def __init__(self, cwnd: int) -> None:
        super().__init__()
        self._cwnd = cwnd
        self.rto_times = []

    @property
    def cwnd(self):
        return self._cwnd

    @cwnd.setter
    def cwnd(self, value):
        self._cwnd = value

    @property
    def ssthresh(self):
        return 1 << 30

    def on_ack(self, ack):
        pass

    def on_loss(self, now):
        pass

    def on_rto(self, now):
        self.rto_times.append(now)


def bare_sender(total: int, cwnd: int, mss: int = 1000, cls=TcpSender,
                handshake: bool = True):
    """A sender past its handshake, wired to nothing: the test plays the
    receiver by handing ACKs to ``on_packet``.  Returns
    ``(sim, sender, wire)``; the first window is already on the wire
    (``handshake=False`` stops after the SYN, at t = 0).
    No sanitizer: hand-made ACKs may report what no receiver would (a
    SACK block the next cumulative ACK lands inside)."""
    sim = Simulator(sanitizer=None)
    host = Host("server")
    wire = Wire(host)
    sender = cls(sim, host, peer="client", flow_id=1, total_bytes=total,
                 cc=FixedWindow(cwnd), mss=mss)
    sender.start()
    if handshake:
        sim.run(until=0.01)
        sender.on_packet(synack())
    return sim, sender, wire


def synack() -> Packet:
    return Packet(flow_id=1, src="client", dst="server",
                  kind=PacketKind.SYNACK)


def ack(ack_seq: int, *sack, ts_echo: Optional[float] = None) -> Packet:
    """A pure ACK for :func:`bare_sender`, with optional SACK blocks and
    the send time it echoes (None: no RTT sample, as for a retransmission)."""
    return Packet(flow_id=1, src="client", dst="server", kind=PacketKind.ACK,
                  ack_seq=ack_seq, sack=tuple(sack) or None, ts_echo=ts_echo)


def rto_deadline(sender: TcpSender) -> Optional[float]:
    """When ``sender``'s retransmission timer expires; None when it is off.

    The one place tests read the timer, so they hold for any timer: the
    shipped sender keeps the deadline beside an engine record that may be
    due earlier, the eager reference timer's deadline is its record's.
    """
    handle = sender._rto_handle
    if handle is None or not sender.sim.event_pending(handle):
        return None
    deadline = sender._rto_deadline  # the reference never sets it
    return event_time(handle) if deadline is None else deadline
