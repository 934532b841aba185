#!/usr/bin/env python3
"""Extending the library: write and register a custom congestion control.

The CC interface mirrors Linux ``tcp_congestion_ops`` (see
``repro.cc.base``).  This example implements AIMD with a configurable
decrease factor, registers it, races it against CUBIC on a shared
bottleneck, and shows it competing through the same stack every built-in
algorithm uses.

Run:  python examples/custom_cca.py
"""

from repro.cc.base import AckInfo, CongestionControl, register
from repro.metrics import jain_index
from repro.sim import Simulator
from repro.workloads import FlowSpec, LocalTestbedConfig, launch_flows


class GentleAimd(CongestionControl):
    """AIMD with a gentle multiplicative decrease (beta = 0.85)."""

    name = "gentle-aimd"
    BETA = 0.85

    def __init__(self) -> None:
        super().__init__()
        self._cwnd = 0.0
        self._ssthresh = float(1 << 62)

    def init(self) -> None:
        self._cwnd = float(self.sender.iw_bytes)

    @property
    def cwnd(self) -> int:
        return int(self._cwnd)

    @property
    def ssthresh(self) -> int:
        return int(self._ssthresh)

    def on_ack(self, ack: AckInfo) -> None:
        if ack.in_recovery:
            return
        if self.in_slow_start:
            self._cwnd += ack.acked_bytes
        else:
            self._cwnd += self.mss * ack.acked_bytes / self._cwnd

    def on_loss(self, now: float) -> None:
        self._ssthresh = max(self._cwnd * self.BETA, 2.0 * self.mss)
        self._cwnd = self._ssthresh

    def on_rto(self, now: float) -> None:
        self._ssthresh = max(self._cwnd / 2.0, 2.0 * self.mss)
        self._cwnd = float(self.mss)


def main() -> None:
    register("gentle-aimd", GentleAimd)

    size = 15_000_000
    config = LocalTestbedConfig(bottleneck_mbps=20.0, rtts=(0.05,) * 5,
                                buffer_bdp=1.0)
    sim = Simulator()
    net = config.build(sim)
    specs = [FlowSpec(1, size, "gentle-aimd"),
             FlowSpec(2, size, "cubic")]
    transfers = launch_flows(sim, net, specs)
    sim.run(until=120.0)

    print("Custom AIMD (beta=0.85) vs CUBIC on a shared 20 Mbit/s link:\n")
    goodputs = []
    for fid, transfer in transfers.items():
        cc_name = transfer.sender.cc.name
        goodput = size / transfer.fct
        goodputs.append(goodput)
        print(f"  flow {fid} ({cc_name:12s})  FCT = {transfer.fct:6.2f} s   "
              f"goodput = {goodput * 8 / 1e6:.2f} Mbit/s   "
              f"retransmits = {transfer.sender.retransmissions}")
    print(f"\nJain fairness index of the pair: {jain_index(goodputs):.3f}")


if __name__ == "__main__":
    main()
