#!/usr/bin/env python3
"""Fairness timeline: a fifth flow joins a busy bottleneck (Fig. 15 live).

Four CUBIC flows share a 50 Mbit/s dumbbell; at t=16 s a fifth joins.
The script prints Jain's fairness index over time as an ASCII strip chart
for SUSS off vs on — the SUSS column should climb back toward 1.0 sooner.

Run:  python examples/fairness_competition.py
"""

from repro.metrics import FlowCollector, fairness_over_time
from repro.obs import Observability
from repro.sim import Simulator
from repro.workloads import FlowSpec, LocalTestbedConfig, launch_flows

JOIN_TIME = 16.0
HORIZON = 36.0
N_FLOWS = 5


def run(suss: bool):
    cc = "cubic+suss" if suss else "cubic"
    config = LocalTestbedConfig(bottleneck_mbps=50.0, rtts=(0.1,) * 5,
                                buffer_bdp=2.0)
    sim = Simulator(obs=Observability())
    net = config.build(sim)
    collector = FlowCollector(sim.obs)  # before the flows are launched
    bulk = int(HORIZON * config.btl_bw)
    specs = [FlowSpec(i + 1, bulk, cc, start_time=2.0 * i)
             for i in range(N_FLOWS - 1)]
    specs.append(FlowSpec(N_FLOWS, bulk, cc, start_time=JOIN_TIME))
    launch_flows(sim, net, specs)
    sim.run(until=HORIZON)
    delivered = {fid: collector.flow(fid).delivered
                 for fid in range(1, N_FLOWS + 1)}
    return fairness_over_time(delivered, t_start=JOIN_TIME - 4.0,
                              t_end=HORIZON, window=2.0, step=1.0)


def bar(f: float, width: int = 40) -> str:
    filled = int(round(f * width))
    return "#" * filled + "." * (width - filled)


def main() -> None:
    off = dict(run(suss=False))
    on = dict(run(suss=True))
    print(f"Jain fairness index over time; 5th flow joins at "
          f"t={JOIN_TIME:.0f}s\n")
    print(f"{'t (s)':>6}  {'SUSS off':<42}  {'SUSS on':<42}")
    for t in sorted(off):
        mark = " <- join" if abs(t - JOIN_TIME) < 0.5 else ""
        print(f"{t:6.1f}  {off[t]:.2f} {bar(off[t])}  "
              f"{on[t]:.2f} {bar(on[t])}{mark}")
    # Summary: first time each variant returns above 0.95 after the join.
    def recovery(points):
        dipped = False
        for t, f in sorted(points.items()):
            if t < JOIN_TIME:
                continue
            if f < 0.95:
                dipped = True
            elif dipped:
                return t - JOIN_TIME
        return None

    r_off, r_on = recovery(off), recovery(on)
    fmt = lambda r: "not within horizon" if r is None else f"{r:.0f} s"
    print(f"\nfairness recovery after join:  SUSS off: {fmt(r_off)}   "
          f"SUSS on: {fmt(r_on)}")


if __name__ == "__main__":
    main()
