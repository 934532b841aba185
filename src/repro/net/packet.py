"""Packet model.

A single :class:`Packet` class covers data segments, pure ACKs, and the two
control packets used by the simplified connection handshake.  Sizes are in
bytes and include a fixed IP+TCP header overhead so link serialisation and
buffer occupancy are realistic.

Packet lifetime
---------------
A packet is a plain value.  The TCP endpoints construct one per segment
and one per ACK; links, queues and routers pass that object along and
never copy it, and its life ends with its last reference — at end-host
delivery, at a drop, or wherever a test or trace tool stops holding it.
The simulator writes no field after construction except the ECN ``ce``
mark a queue may set and a link's ``_origin`` bookkeeping on traced
runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple

from repro.core.units import MSS, Bytes, Seconds

#: Fixed per-packet header overhead (IPv4 20 B + TCP 20 B + options 12 B).
HEADER_BYTES: Bytes = 52

#: Default maximum segment size (payload bytes), 1500 MTU minus headers.
DEFAULT_MSS: Bytes = MSS


class PacketKind(Enum):
    """Wire-level packet type."""

    DATA = "data"
    ACK = "ack"
    SYN = "syn"
    SYNACK = "synack"


@dataclass(slots=True)
class Packet:
    """A simulated network packet.

    Attributes:
        flow_id: identifier of the TCP connection this packet belongs to.
        src: name of the sending host.
        dst: name of the destination host (used for routing).
        kind: data / ack / handshake type.
        seq: first payload byte carried (data) or 0.
        payload: payload length in bytes (0 for ACKs and control packets).
        ack_seq: cumulative acknowledgement (next byte expected), ACKs only.
        sent_time: simulation time when the packet left the sender.
        ts_echo: for ACKs, the ``sent_time`` of the segment that triggered
            this ACK; ``None`` when that segment was a retransmission
            (Karn's algorithm — no RTT sample).
        retransmit: True when this data segment is a retransmission.
        sack: for ACKs, up to a few selective-acknowledgement blocks —
            ``((start, end), ...)`` intervals received above ``ack_seq``.
        ect: ECN-capable transport (data packets of an ECN connection).
        ce: congestion experienced — set by an ECN-marking queue.
        ece: ECN echo — set on ACKs until a CWR is seen (RFC 3168).
        cwr: congestion window reduced — sender's response to ECE.
    """

    flow_id: int
    src: str
    dst: str
    kind: PacketKind
    seq: int = 0
    payload: int = 0
    ack_seq: int = 0
    sent_time: Seconds = 0.0
    ts_echo: Optional[Seconds] = None
    retransmit: bool = False
    sack: Optional[Tuple[Tuple[int, int], ...]] = None
    ect: bool = False
    ce: bool = False
    ece: bool = False
    cwr: bool = False
    #: traced runs only: scheduling origin of the event that offered the
    #: packet to the link it is queued at (``Link.send`` writes it,
    #: ``Link._start_next`` restores it), so a wait in a queue does not
    #: re-attribute the packet to whatever woke the link.
    _origin: int = field(default=0, repr=False, compare=False)
    #: total wire size in bytes (payload plus header overhead).  Links
    #: and queues read it at every hop, so it is stored beside
    #: ``payload`` by construction, the only writer of that (CI's
    #: retired-names scan refuses any later assignment to ``payload``)
    #: — rather than computed per read.
    size: Bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.size = self.payload + HEADER_BYTES

    @property
    def end_seq(self) -> int:
        """One past the last payload byte carried by this segment."""
        return self.seq + self.payload

    @property
    def is_data(self) -> bool:
        return self.kind is PacketKind.DATA

    @property
    def is_ack(self) -> bool:
        return self.kind is PacketKind.ACK

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is PacketKind.DATA:
            body = f"seq={self.seq}..{self.end_seq}"
        elif self.kind is PacketKind.ACK:
            body = f"ack={self.ack_seq}"
        else:
            body = self.kind.value
        return f"<Packet f{self.flow_id} {self.src}->{self.dst} {body}>"
