#!/usr/bin/env python3
"""Live-ish streaming: a server pushes video segments as they are encoded.

Unlike a file download, a streaming server writes data in bursts (one
segment every ``SEGMENT_INTERVAL``), so the connection alternates between
app-limited lulls and bursts.  SUSS only accelerates when there is a real
backlog to pace — this example shows it shaving the per-segment delivery
delay while the trickle periods stay untouched.

Run:  python examples/streaming_server.py
"""

from repro.metrics import FlowCollector
from repro.obs import Observability
from repro.sim import RngRegistry, Simulator
from repro.tcp.stream import open_stream
from repro.workloads import get_scenario

SEGMENT_BYTES = 1_200_000      # ~2 s of 5 Mbit/s video
SEGMENT_INTERVAL = 2.0
N_SEGMENTS = 8


def stream_session(cc: str, seed: int = 0):
    """Returns per-segment delivery delays (write -> fully delivered)."""
    scenario = get_scenario("google-tokyo", "wifi")
    sim = Simulator(obs=Observability())
    net = scenario.build(sim, RngRegistry(seed))
    collector = FlowCollector(sim.obs)
    source, transfer = open_stream(sim, net.servers[0], net.clients[0],
                                   flow_id=1, cc=cc)
    write_times = []

    def push_segment(index):
        write_times.append(sim.now)
        source.write(SEGMENT_BYTES)
        if index + 1 == N_SEGMENTS:
            source.close()

    for i in range(N_SEGMENTS):
        sim.schedule(i * SEGMENT_INTERVAL, push_segment, i)
    sim.run(until=120.0)
    assert transfer.completed, f"{cc}: stream did not finish"

    delivered = collector.flow(1).delivered
    delays = []
    for i, t_write in enumerate(write_times):
        target = (i + 1) * SEGMENT_BYTES
        t_done = next(t for t, v in delivered if v >= target)
        delays.append(t_done - t_write)
    return delays


def main() -> None:
    print(f"Streaming {N_SEGMENTS} x {SEGMENT_BYTES / 1e6:.1f} MB segments "
          f"every {SEGMENT_INTERVAL:.0f}s over google-tokyo/wifi\n")
    results = {}
    for cc in ("cubic", "cubic+suss"):
        delays = stream_session(cc)
        results[cc] = delays
        head = " ".join(f"{d:.2f}" for d in delays[:4])
        print(f"  {cc:12s} segment delivery delays (s): {head} ...  "
              f"mean={sum(delays) / len(delays):.2f}")
    first_imp = 1 - results["cubic+suss"][0] / results["cubic"][0]
    mean_imp = 1 - (sum(results["cubic+suss"]) / len(results["cubic+suss"])
                    ) / (sum(results["cubic"]) / len(results["cubic"]))
    print(f"\nSUSS cuts the first-segment delay by {first_imp:.1%} "
          f"(mean across segments: {mean_imp:.1%})")


if __name__ == "__main__":
    main()
