#!/usr/bin/env python3
"""Web-page load: many small objects over a real-world path model.

The paper motivates SUSS with web browsing: a page is a burst of small
downloads (HTML, CSS, images), each a fresh TCP connection living almost
entirely in slow start.  This example loads a synthetic page — one 100 kB
document plus a dozen 50 kB-1.5 MB assets over six parallel connections —
from the Google Tokyo scenario of the paper's testbed, and compares page
load time across BBR, CUBIC, and CUBIC+SUSS.

Run:  python examples/web_page_load.py
"""

from repro.sim import RngRegistry, Simulator
from repro.tcp import open_transfer
from repro.workloads import get_scenario

#: the page: object sizes in bytes (document first, then assets)
PAGE_OBJECTS = [100_000, 1_500_000, 800_000, 400_000, 250_000, 150_000,
                900_000, 600_000, 350_000, 120_000, 75_000, 50_000,
                1_100_000]
#: browser-like connection parallelism
MAX_PARALLEL = 6


def load_page(cc: str, seed: int = 0) -> float:
    """Return the page load time (last object finished) for one CCA."""
    scenario = get_scenario("google-tokyo", "wifi")
    sim = Simulator()
    net = scenario.build(sim, RngRegistry(seed))

    pending = list(enumerate(PAGE_OBJECTS))
    finished = []

    def start_next(_sender=None) -> None:
        if not pending:
            return
        index, size = pending.pop(0)
        open_transfer(sim, net.servers[0], net.clients[0],
                      flow_id=100 + index, size_bytes=size, cc=cc,
                      on_complete=lambda s: (finished.append(sim.now),
                                             start_next()))

    # The document loads first; assets then fan out over parallel
    # connections, new ones starting as others finish.
    for _ in range(min(MAX_PARALLEL, len(pending))):
        start_next()
    sim.run(until=120.0)
    if len(finished) != len(PAGE_OBJECTS):
        raise RuntimeError(f"{cc}: only {len(finished)} objects finished")
    return max(finished)


def main() -> None:
    total_kb = sum(PAGE_OBJECTS) / 1000
    print(f"Loading a {total_kb:.0f} kB page "
          f"({len(PAGE_OBJECTS)} objects, {MAX_PARALLEL} parallel "
          f"connections) over the google-tokyo/wifi path\n")
    times = {}
    for cc in ("bbr", "cubic", "cubic+suss"):
        plts = [load_page(cc, seed) for seed in range(3)]
        times[cc] = sum(plts) / len(plts)
        print(f"  {cc:12s}  page load time = {times[cc]:.2f} s "
              f"(mean of {len(plts)} runs)")
    imp = (times["cubic"] - times["cubic+suss"]) / times["cubic"]
    print(f"\nSUSS speeds up the page load by {imp:.1%} over plain CUBIC")


if __name__ == "__main__":
    main()
