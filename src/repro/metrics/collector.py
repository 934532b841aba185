"""Per-flow series collection — the simulation analogue of the paper's
kernel log.

The paper instruments the kernel to log TCP state variables (inflight,
cwnd, RTT, delivered data) and derives its figures from that one log.
:class:`FlowCollector` is the same thing over the stack's one probe: it
subscribes to the ``cc.cwnd`` / ``tcp.rtt`` / ``tcp.delivered`` records
of an :class:`~repro.obs.tracer.Observability` bundle and files them as
per-flow :class:`FlowTrace` series, which experiments read afterwards.
Counts are not duplicated here: packets sent and retransmitted are the
sender's (``data_packets_sent`` / ``retransmissions``), drops the
queue's (``flow_drops``).

One collector serves every flow of the simulation; create it before the
flows (components resolve who listens when they are built).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

from repro.metrics.timeseries import TimeSeries
from repro.obs import records as obsrec
from repro.obs.tracer import Observability


@dataclass
class FlowTrace:
    """The sampled series of one flow."""

    flow_id: int
    cwnd: TimeSeries = field(default_factory=lambda: TimeSeries("cwnd"))
    inflight: TimeSeries = field(default_factory=lambda: TimeSeries("inflight"))
    rtt: TimeSeries = field(default_factory=lambda: TimeSeries("rtt"))
    delivered: TimeSeries = field(default_factory=lambda: TimeSeries("delivered"))


class _FlowTraces(Dict[int, FlowTrace]):
    """``traces[flow_id]`` makes the flow's record on first use."""

    def __missing__(self, flow_id: int) -> FlowTrace:
        trace = self[flow_id] = FlowTrace(flow_id)
        return trace


class FlowCollector:
    """Probe subscriber filling one :class:`FlowTrace` per flow."""

    def __init__(self, obs: Observability) -> None:
        self.flows = _FlowTraces()
        obs.subscribe(obsrec.CC_CWND, self._on_cwnd)
        obs.subscribe(obsrec.TCP_RTT, self._on_rtt)
        obs.subscribe(obsrec.TCP_DELIVERED, self._on_delivered)

    def flow(self, flow_id: int) -> FlowTrace:
        return self.flows[flow_id]

    def _on_cwnd(self, time: float, flow: int, fields: Dict[str, Any]) -> None:
        trace = self.flows[flow]
        trace.cwnd.append(time, fields["cwnd"])
        trace.inflight.append(time, fields["flight"])

    def _on_rtt(self, time: float, flow: int, fields: Dict[str, Any]) -> None:
        self.flows[flow].rtt.append(time, fields["rtt"])

    def _on_delivered(self, time: float, flow: int,
                      fields: Dict[str, Any]) -> None:
        self.flows[flow].delivered.append(time, fields["delivered"])
