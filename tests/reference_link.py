"""Differential oracle: the two-events-per-packet link the stack shipped with.

``repro.net.link.Link`` used to spend two engine events on every packet
at every hop: ``_finish_transmission`` when the last bit left the
serialiser — which counted the packet, drew loss and jitter, scheduled
the arrival at the far end and started the next packet — and then that
arrival.  The shipped link computes the finish time when serialisation
*starts* and schedules the arrival from there, waking itself at the
finish time only when a packet is waiting.  The old body lives on here,
verbatim, as the reference the shipped link is compared against: same
packets at the same (float ``==``) times, same drops, same queue
statistics, same eid-free trace digests
(``tests/test_link_differential.py``).  Nothing under ``src/`` may
import this.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.core.units import Bytes, BytesPerSec, Seconds
from repro.net import topology
from repro.net.link import Receiver
from repro.net.netem import BandwidthProfile, ConstantBandwidth, JitterModel, LossModel
from repro.net.packet import Packet
from repro.net.queue import DropTailQueue
from repro.net.topogen import build as topogen_build
from repro.obs import records as obsrec
from repro.sim.engine import Simulator


class ReferenceLink:
    """One direction of a link: queue → serialiser → propagation → dst."""

    __slots__ = ("sim", "dst", "bandwidth", "delay", "queue", "jitter",
                 "loss", "name", "_busy", "_last_arrival", "packets_sent",
                 "bytes_sent", "packets_lost", "_drop_obs", "_set_now")

    def __init__(self, sim: Simulator, dst: Receiver, bandwidth: BandwidthProfile,
                 delay: Seconds, queue: Optional[DropTailQueue] = None,
                 jitter: Optional[JitterModel] = None,
                 loss: Optional[LossModel] = None,
                 name: str = "link") -> None:
        if delay < 0:
            raise ValueError("propagation delay must be non-negative")
        if isinstance(bandwidth, (int, float)):
            # ConstantBandwidth validates the scalar (positive + finite),
            # so a zero/negative/NaN rate fails here instead of poisoning
            # serialisation times downstream.
            bandwidth = ConstantBandwidth(float(bandwidth))
        self.sim = sim
        self.dst = dst
        self.bandwidth = bandwidth
        self.delay = delay
        self.queue = queue if queue is not None else DropTailQueue(10**9, name=f"{name}.q")
        self.jitter = jitter
        self.loss = loss
        self.name = name
        self._busy = False
        self._last_arrival: Seconds = 0.0
        self.packets_sent = 0
        self.bytes_sent: Bytes = 0
        self.packets_lost = 0
        # Hoisted once: the per-send cost of the CoDel time hint is a
        # pointer test instead of a hasattr() call.
        self._set_now = getattr(self.queue, "set_now", None)
        # Resolved once: a link nobody watches drops on pays one pointer
        # test per drop site.
        obs = sim.obs
        self._drop_obs = (None if obs is None
                          else obs.gate(obsrec.PKT_DROP))

    # ------------------------------------------------------------------
    def send(self, packet: Packet) -> bool:
        """Offer a packet to the link; False means the queue dropped it."""
        if self._set_now is not None:
            self._set_now(self.sim.now)
        if not self.queue.push(packet):
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(f"{self.name}: queue full")
            if self._drop_obs is not None:
                self._note_drop(packet, "queue_full")
            return False
        if not self._busy:
            self._start_next()
        return True

    # ------------------------------------------------------------------
    def _start_next(self) -> None:
        drops_before = self.queue.drops
        packet = self.queue.pop(self.sim.now)
        if self.queue.drops > drops_before:
            # AQM (CoDel) head drops happen inside pop().
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(
                    f"{self.name}: AQM drop", self.queue.drops - drops_before)
            if self._drop_obs is not None:
                self._drop_obs.emit(self.sim.now, obsrec.PKT_DROP, -1,
                                    link=self.name, reason="aqm",
                                    count=self.queue.drops - drops_before)
        if packet is None:
            self._busy = False
            return
        self._busy = True
        rate = self.bandwidth.rate_at(self.sim.now)
        tx_time = packet.size / rate
        self.sim.schedule(tx_time, self._finish_transmission, packet)

    def _finish_transmission(self, packet: Packet) -> None:
        self.packets_sent += 1
        self.bytes_sent += packet.size
        if self.loss is not None and self.loss.drops():
            self.packets_lost += 1
            if self.sim.sanitizer is not None:
                self.sim.sanitizer.note_network_drop(f"{self.name}: random loss")
            if self._drop_obs is not None:
                self._note_drop(packet, "random_loss")
        else:
            prop = self.delay
            if self.jitter is not None:
                prop += self.jitter.sample(self.sim.now)
            # Jitter must not reorder: real-path delay variation comes from
            # queueing, which preserves FIFO order.  Clamp each arrival to
            # be no earlier than the previous one.
            arrival = max(self.sim.now + prop, self._last_arrival)
            self._last_arrival = arrival
            self.sim.schedule_at(arrival, self.dst.receive, packet)
        self._start_next()

    def _note_drop(self, packet: Packet, reason: str) -> None:
        self._drop_obs.emit(self.sim.now, obsrec.PKT_DROP, packet.flow_id,
                            link=self.name, reason=reason, seq=packet.seq,
                            size=packet.size)

    # ------------------------------------------------------------------
    @property
    def busy(self) -> bool:
        return self._busy

    def utilization_rate(self) -> BytesPerSec:
        """Mean bytes/second pushed through the link so far."""
        if self.sim.now <= 0.0:
            return 0.0
        return self.bytes_sent / self.sim.now


class FinishLoggingReference(ReferenceLink):
    """The oracle, remembering the instants its serialisations ended:
    where ``busy`` / ``packets_sent`` are a tie, and where an offer is
    one."""

    __slots__ = ("finishes",)

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.finishes = set()

    def _finish_transmission(self, packet: Packet) -> None:
        self.finishes.add(self.sim.now)
        super()._finish_transmission(packet)


@contextmanager
def reference_links() -> Iterator[None]:
    """Make ``build_dumbbell`` / ``build_path`` / ``build_topology`` wire
    :class:`ReferenceLink` in place of the shipped ``Link``."""
    shipped = topology.Link, topogen_build.Link
    topology.Link = topogen_build.Link = ReferenceLink
    try:
        yield
    finally:
        topology.Link, topogen_build.Link = shipped
