#!/usr/bin/env python3
"""Quickstart: download a 2 MB file over a long-fat path, SUSS on vs off.

This is the paper's elevator pitch in thirty lines: on a 100 Mbit/s,
100 ms-RTT path, a small flow spends its whole life in slow start, and
SUSS's accelerated-yet-paced cwnd growth completes it >20% sooner.

Run:  python examples/quickstart.py
"""

from repro.metrics import FlowCollector
from repro.net import bdp_bytes, build_path
from repro.obs import Observability
from repro.sim import Simulator
from repro.tcp import open_transfer

RATE = 12_500_000       # 100 Mbit/s in bytes/second
RTT = 0.100             # 100 ms
SIZE = 2_000_000        # a small flow: 2 MB


def download(cc: str) -> tuple:
    """Run one download; returns (fct, cwnd_trace)."""
    sim = Simulator(obs=Observability())
    net = build_path(sim, bottleneck_rate=RATE, rtt=RTT,
                     buffer_bytes=bdp_bytes(RATE, RTT))
    # The collector subscribes to the cwnd / RTT / delivered records the
    # stack emits; create it before the transfer.
    collector = FlowCollector(sim.obs)
    transfer = open_transfer(sim, net.servers[0], net.clients[0],
                             flow_id=1, size_bytes=SIZE, cc=cc)
    sim.run(until=60.0)
    assert transfer.completed, f"{cc} did not finish"
    return transfer.fct, collector.flow(1).cwnd


def main() -> None:
    print(f"Downloading {SIZE / 1e6:.0f} MB over a "
          f"{RATE * 8 / 1e6:.0f} Mbit/s, {RTT * 1000:.0f} ms path\n")
    fcts = {}
    for cc in ("cubic", "cubic+suss"):
        fct, cwnd = download(cc)
        fcts[cc] = fct
        peak = int((cwnd.max_value() or 0) / 1448)
        print(f"  {cc:12s}  FCT = {fct:.3f} s   peak cwnd = {peak} segments")
    improvement = (fcts["cubic"] - fcts["cubic+suss"]) / fcts["cubic"]
    print(f"\nSUSS improves flow completion time by {improvement:.1%}")


if __name__ == "__main__":
    main()
