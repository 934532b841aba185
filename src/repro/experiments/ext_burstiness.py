"""Extension — bottleneck queue pressure during slow start.

The mechanism behind Fig. 14: plain slow start clocks out back-to-back
doubling bursts whose tail stacks up in the bottleneck buffer, while SUSS
pushes its extra data through the pacing period at ``cwnd/minRTT``.
This experiment watches the bottleneck queue directly and reports peak
and 95th-percentile occupancy over the slow-start phase for CUBIC with
SUSS off/on (and optionally the burstier related-work schemes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.report import render_table
from repro.experiments.runner import run_single_flow
from repro.metrics.queuemon import QueueMonitor
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.flows import MB
from repro.workloads.scenarios import PathScenario, get_scenario


@dataclass
class BurstinessRow:
    cc: str
    fct: float
    peak_queue: float            # bytes
    p95_queue: float             # bytes
    buffer_bytes: int
    drops: int

    @property
    def peak_fill(self) -> float:
        return self.peak_queue / self.buffer_bytes


def run(size: int = 3 * MB, seed: int = 0,
        scenario: PathScenario = None,
        ccs: Sequence[str] = ("cubic", "cubic+suss"),
        sample_interval: float = 0.002) -> List[BurstinessRow]:
    if scenario is None:
        scenario = get_scenario("google-tokyo", "wired")
    rows: List[BurstinessRow] = []
    for cc in ccs:
        sim = Simulator()
        net = scenario.build(sim, RngRegistry(seed))
        monitor = QueueMonitor(sim, net.bottleneck_queue,
                               interval=sample_interval)
        result = run_single_flow(scenario, cc, size, seed=seed,
                                 net=net, sim=sim)
        monitor.stop()
        if result.fct is None:
            raise RuntimeError(f"{cc} did not finish")
        # Queue pressure over the ramp (first 60% of the flow's life).
        ramp_end = result.fct * 0.6
        rows.append(BurstinessRow(
            cc=cc, fct=result.fct,
            peak_queue=monitor.peak(0.0, ramp_end),
            p95_queue=monitor.percentile(95, 0.0, ramp_end),
            buffer_bytes=scenario.buffer_bytes,
            drops=result.drops))
    return rows


def format_report(rows: Sequence[BurstinessRow]) -> str:
    table = [[r.cc, f"{r.fct:.3f}", f"{r.peak_queue / 1e3:.0f} kB",
              f"{r.peak_fill * 100:.0f}%", f"{r.p95_queue / 1e3:.0f} kB",
              r.drops]
             for r in rows]
    return render_table(
        ["cc", "FCT (s)", "peak queue", "peak fill", "p95 queue", "drops"],
        table,
        title="Extension — bottleneck queue pressure during slow start")
