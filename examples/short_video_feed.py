#!/usr/bin/env python3
"""Short-form video feed: sequential chunk fetches on a 4G phone.

The paper's second motivating workload: social-media style short videos.
Each video is a fresh connection fetching a few megabytes; the user swipes
every few seconds, so *startup delay* — time until the first 500 kB
(enough to begin playback) — is what matters.  This example replays a
feed of ten videos over the paper's Fig. 9 path (4G client in NZ, server
in Google US-East) and reports startup delay and fetch time per scheme.

Run:  python examples/short_video_feed.py
"""

from repro.metrics import FlowCollector
from repro.obs import Observability
from repro.sim import RngRegistry, Simulator
from repro.tcp import open_transfer
from repro.workloads import FIG9_SCENARIO

#: ten videos, 1.5-5 MB each
VIDEO_SIZES = [3_000_000, 1_500_000, 4_200_000, 2_400_000, 5_000_000,
               1_800_000, 3_600_000, 2_000_000, 4_800_000, 2_700_000]
#: bytes buffered before playback starts
PLAYBACK_THRESHOLD = 500_000


def fetch_feed(cc: str, seed: int = 0):
    """Fetch all videos sequentially; returns (startup delays, fetch times)."""
    startups, fetches = [], []
    for index, size in enumerate(VIDEO_SIZES):
        sim = Simulator(obs=Observability())
        net = FIG9_SCENARIO.build(sim, RngRegistry(seed * 1000 + index))
        collector = FlowCollector(sim.obs)
        transfer = open_transfer(sim, net.servers[0], net.clients[0],
                                 flow_id=1, size_bytes=size, cc=cc)
        sim.run(until=120.0)
        if not transfer.completed:
            raise RuntimeError(f"{cc}: video {index} did not finish")
        delivered = collector.flow(1).delivered
        startup = next(t for t, v in delivered if v >= PLAYBACK_THRESHOLD)
        startups.append(startup)
        fetches.append(transfer.fct)
    return startups, fetches


def main() -> None:
    print(f"Fetching {len(VIDEO_SIZES)} short videos "
          f"({sum(VIDEO_SIZES) / 1e6:.0f} MB total) over the "
          f"{FIG9_SCENARIO.name} path\n")
    means = {}
    for cc in ("bbr", "cubic", "cubic+suss"):
        startups, fetches = fetch_feed(cc)
        mean_startup = sum(startups) / len(startups)
        mean_fetch = sum(fetches) / len(fetches)
        means[cc] = (mean_startup, mean_fetch)
        print(f"  {cc:12s}  startup delay = {mean_startup:.2f} s   "
              f"full fetch = {mean_fetch:.2f} s")
    s_imp = 1 - means["cubic+suss"][0] / means["cubic"][0]
    f_imp = 1 - means["cubic+suss"][1] / means["cubic"][1]
    print(f"\nSUSS cuts startup delay by {s_imp:.1%} "
          f"and fetch time by {f_imp:.1%} vs plain CUBIC")


if __name__ == "__main__":
    main()
