"""Extension — SUSS under organic cross traffic.

The paper's internet-scale paths carry live cross traffic; the simulated
scenarios are otherwise idle.  This experiment loads the bottleneck with
a Poisson stream of short web-like flows (30% of capacity by default) and
measures whether the SUSS gain for a foreground download survives the
contention — and whether SUSS's acceleration harms the cross flows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.experiments.report import pct, render_table
from repro.metrics.summary import summarize
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.connection import open_transfer
from repro.workloads.crosstraffic import CrossTraffic
from repro.workloads.flows import MB
from repro.workloads.scenarios import LocalTestbedConfig


@dataclass
class CrossTrafficResult:
    cc: str
    load: float
    foreground_fct: float            # mean over repeats
    cross_flow_mean_fct: Optional[float]
    cross_flows_completed: int


def _one(cc: str, load: float, size: int, seed: int,
         bottleneck_mbps: float, fg_start: float,
         horizon: float) -> CrossTrafficResult:
    config = LocalTestbedConfig(bottleneck_mbps=bottleneck_mbps,
                                rtts=(0.08,) * 5, buffer_bdp=1.5)
    sim = Simulator()
    net = config.build(sim, RngRegistry(seed))
    cross = CrossTraffic(sim=sim, net=net, pair_index=4, target_load=load,
                         bottleneck_rate=config.btl_bw,
                         rng=random.Random(seed + 99))
    cross.start()
    foreground = open_transfer(sim, net.servers[0], net.clients[0],
                               flow_id=1, size_bytes=size, cc=cc,
                               start_time=fg_start)
    sim.run(until=horizon)
    if sim.obs is not None:
        sim.obs.close()
    if not foreground.completed:
        raise RuntimeError(f"foreground {cc} did not finish under load")
    cross_fcts = [f.fct for f in cross.flows if f.fct is not None]
    return CrossTrafficResult(
        cc=cc, load=load, foreground_fct=foreground.fct,
        cross_flow_mean_fct=(summarize(cross_fcts).mean
                             if cross_fcts else None),
        cross_flows_completed=len(cross_fcts))


def run(size: int = 2 * MB, load: float = 0.3, iterations: int = 2,
        base_seed: int = 0, bottleneck_mbps: float = 50.0,
        fg_start: float = 8.0, horizon: float = 40.0,
        ccs: Sequence[str] = ("cubic", "cubic+suss")
        ) -> List[CrossTrafficResult]:
    results: List[CrossTrafficResult] = []
    for cc in ccs:
        fg, cross, done = [], [], 0
        for i in range(iterations):
            r = _one(cc, load, size, base_seed + i, bottleneck_mbps,
                     fg_start, horizon)
            fg.append(r.foreground_fct)
            if r.cross_flow_mean_fct is not None:
                cross.append(r.cross_flow_mean_fct)
            done += r.cross_flows_completed
        results.append(CrossTrafficResult(
            cc=cc, load=load, foreground_fct=summarize(fg).mean,
            cross_flow_mean_fct=(summarize(cross).mean if cross else None),
            cross_flows_completed=done))
    return results


def suss_improvement(results: Sequence[CrossTrafficResult]) -> float:
    by_cc = {r.cc: r for r in results}
    return ((by_cc["cubic"].foreground_fct
             - by_cc["cubic+suss"].foreground_fct)
            / by_cc["cubic"].foreground_fct)


def cross_flow_regression(results: Sequence[CrossTrafficResult]) -> float:
    """Relative change in cross-flow FCT when the foreground uses SUSS."""
    by_cc = {r.cc: r for r in results}
    off = by_cc["cubic"].cross_flow_mean_fct
    on = by_cc["cubic+suss"].cross_flow_mean_fct
    if not off or not on:
        return 0.0
    return (on - off) / off


def format_report(results: Sequence[CrossTrafficResult]) -> str:
    rows = [[r.cc, f"{r.load * 100:.0f}%", f"{r.foreground_fct:.3f}",
             "-" if r.cross_flow_mean_fct is None
             else f"{r.cross_flow_mean_fct:.3f}",
             r.cross_flows_completed] for r in results]
    table = render_table(
        ["foreground cc", "cross load", "foreground FCT (s)",
         "cross-flow mean FCT (s)", "cross flows done"], rows,
        title="Extension — foreground download under Poisson cross traffic")
    return (table + f"\nforeground improvement={pct(suss_improvement(results))}"
            f"  cross-flow regression={pct(cross_flow_regression(results))}")
