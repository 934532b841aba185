"""Point-to-point links with serialisation, propagation, and impairments.

A :class:`Link` models one direction of a physical link:

* packets wait in an attached queue (drop-tail by default) while the link
  serialises earlier packets at the (possibly time-varying) bandwidth;
* each packet then propagates for ``delay`` plus optional jitter;
* optional Bernoulli loss discards packets at the receiving end
  (after consuming link capacity, like real corruption loss).

The queue is where bottleneck buffering happens, so buffer sizing in BDP
units — as in the paper's testbed — is applied to the link's queue.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.core.units import Bytes, BytesPerSec, Seconds
from repro.net.netem import BandwidthProfile, ConstantBandwidth, JitterModel, LossModel
from repro.net.packet import POOL, Packet
from repro.net.queue import DropTailQueue
from repro.obs import records as obsrec
from repro.sim.engine import Simulator


class Receiver(Protocol):
    """Anything that can accept a packet (host, router)."""

    def receive(self, packet: Packet) -> None: ...


class Link:
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
            # The packet dies mid-path: pooled packets rejoin the free
            # list here instead of waiting for end-host delivery that
            # will never come (refcount-guarded).
            POOL.release(packet)
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
