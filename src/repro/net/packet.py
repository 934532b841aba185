"""Packet model.

A single :class:`Packet` class covers data segments, pure ACKs, and the two
control packets used by the simplified connection handshake.  Sizes are in
bytes and include a fixed IP+TCP header overhead so link serialisation and
buffer occupancy are realistic.

Packet pooling
--------------
A dumbbell transfer allocates one :class:`Packet` per segment and per ACK
— the dominant allocation in the hot path.  :class:`PacketPool` recycles
delivered packets instead: the TCP endpoints acquire data/ACK packets
from the process-wide :data:`POOL`, and :meth:`repro.net.node.Host.receive`
releases them at end of life.  Recycling is *refcount-guarded*: a packet
is only returned to the free list when ``sys.getrefcount`` proves the
transient dispatch frames hold the last references, so code that retains
a packet (telemetry, test stubs, trace tooling) transparently keeps it —
the pool never aliases a live object.  Acquired packets always draw a
fresh ``packet_id`` from the same global counter as direct construction,
so the id stream is identical however many acquisitions the free list
serves; golden traces cannot tell the difference.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Tuple

from repro.core.units import MSS, Bytes, Seconds

#: Fixed per-packet header overhead (IPv4 20 B + TCP 20 B + options 12 B).
HEADER_BYTES: Bytes = 52

#: Default maximum segment size (payload bytes), 1500 MTU minus headers.
DEFAULT_MSS: Bytes = MSS

_packet_ids = itertools.count(1)


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
    packet_id: int = field(default_factory=lambda: next(_packet_ids))
    #: pool bookkeeping: 0 = direct construction (never recycled),
    #: 1 = live, acquired from a pool, 2 = parked in a pool's free list.
    _pool_state: int = field(default=0, repr=False, compare=False)
    #: traced runs only: scheduling origin of the event that offered the
    #: packet to the link it is queued at (``Link.send`` writes it,
    #: ``Link._start_next`` restores it), so a wait in a queue does not
    #: re-attribute the packet to whatever woke the link.
    _origin: int = field(default=0, repr=False, compare=False)
    #: total wire size in bytes (payload plus header overhead).  Links
    #: and queues read it at every hop, so it is stored beside
    #: ``payload`` by the only writers of that — construction and the
    #: pool's two recycling paths, all in this file (CI's retired-names
    #: scan refuses a ``.payload =`` anywhere else) — rather than
    #: computed per read.
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


#: Reference floor for :meth:`PacketPool.release` at an end-of-life call
#: site reached through engine dispatch: the event's args tuple, the
#: consuming frame (``Host.receive``), the ``release`` frame, and
#: ``sys.getrefcount``'s own argument.  Any retention beyond these
#: transient references (telemetry, a capturing test stub, trace tooling)
#: pushes the count past the floor and vetoes recycling.
RELEASE_FLOOR = 4


class PacketPool:
    """LIFO free-list of :class:`Packet` objects with an aliasing guard.

    ``acquire_data`` / ``acquire_ack`` either pop the most recently
    released packet (deterministic LIFO reuse order) or construct a new
    one; every acquisition resets all fields and draws a fresh
    ``packet_id``, so pooled and unpooled runs are indistinguishable.
    ``release`` recycles only packets this pool handed out (direct
    constructions have ``_pool_state == 0`` and are ignored) and only
    when the refcount proves no one else still holds them.
    """

    __slots__ = ("_free", "allocated", "reused", "retained")

    def __init__(self, prealloc: int = 0) -> None:
        self.allocated = 0  # constructions the pool performed
        self.reused = 0     # acquisitions served from the free list
        self.retained = 0   # releases vetoed by the refcount guard
        self._free: List[Packet] = []
        for _ in range(prealloc):
            # packet_id=0 keeps preallocation from consuming ids: the
            # global id stream must not depend on pool configuration.
            blank = Packet(flow_id=-1, src="", dst="",
                           kind=PacketKind.DATA, packet_id=0,
                           _pool_state=2)
            self._free.append(blank)

    def __len__(self) -> int:
        return len(self._free)

    # ------------------------------------------------------------------
    def acquire_data(self, flow_id: int, src: str, dst: str, seq: int,
                     payload: Bytes, sent_time: Seconds, retransmit: bool,
                     ect: bool, cwr: bool) -> Packet:
        """A DATA segment, recycled when possible."""
        free = self._free
        if free:
            p = free.pop()
            self.reused += 1
            p.flow_id = flow_id
            p.src = src
            p.dst = dst
            p.kind = PacketKind.DATA
            p.seq = seq
            p.payload = payload
            p.size = payload + HEADER_BYTES
            p.ack_seq = 0
            p.sent_time = sent_time
            p.ts_echo = None
            p.retransmit = retransmit
            p.sack = None
            p.ect = ect
            p.ce = False
            p.ece = False
            p.cwr = cwr
            p.packet_id = next(_packet_ids)
            p._pool_state = 1
            return p
        self.allocated += 1
        return Packet(flow_id=flow_id, src=src, dst=dst, kind=PacketKind.DATA,
                      seq=seq, payload=payload, sent_time=sent_time,
                      retransmit=retransmit, ect=ect, cwr=cwr, _pool_state=1)

    def acquire_ack(self, flow_id: int, src: str, dst: str, ack_seq: int,
                    sent_time: Seconds, ts_echo: Optional[Seconds],
                    sack: Optional[Tuple[Tuple[int, int], ...]],
                    ece: bool) -> Packet:
        """A pure ACK, recycled when possible."""
        free = self._free
        if free:
            p = free.pop()
            self.reused += 1
            p.flow_id = flow_id
            p.src = src
            p.dst = dst
            p.kind = PacketKind.ACK
            p.seq = 0
            p.payload = 0
            p.size = HEADER_BYTES
            p.ack_seq = ack_seq
            p.sent_time = sent_time
            p.ts_echo = ts_echo
            p.retransmit = False
            p.sack = sack
            p.ect = False
            p.ce = False
            p.ece = ece
            p.cwr = False
            p.packet_id = next(_packet_ids)
            p._pool_state = 1
            return p
        self.allocated += 1
        return Packet(flow_id=flow_id, src=src, dst=dst, kind=PacketKind.ACK,
                      ack_seq=ack_seq, sent_time=sent_time, ts_echo=ts_echo,
                      sack=sack, ece=ece, _pool_state=1)

    # ------------------------------------------------------------------
    def release(self, packet: Packet, refs_ok: int = RELEASE_FLOOR) -> bool:
        """Offer a packet back; True when it actually joined the free list.

        Safe to call on any packet: direct constructions and packets from
        other pools are ignored, and a packet whose refcount exceeds
        ``refs_ok`` (someone besides the transient dispatch frames still
        holds it) is left alive untouched.
        """
        if packet._pool_state != 1:
            return False
        if sys.getrefcount(packet) > refs_ok:
            self.retained += 1
            return False
        packet._pool_state = 2
        self._free.append(packet)
        return True


#: Process-wide packet pool used by the TCP endpoints and released by
#: ``Host.receive``.
POOL = PacketPool(prealloc=64)
