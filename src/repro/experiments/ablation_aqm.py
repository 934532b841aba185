"""Extension — SUSS under an AQM (CoDel) bottleneck.

Section 2 notes AQM algorithms like (FQ-)CoDel "help TCP slow-start
converge to cwnd* more quickly".  SUSS must coexist with them: CoDel's
early drops end slow start sooner, so there is less room to accelerate —
but acceleration must not turn into a drop storm either.  The ablation
runs the same download over a drop-tail and a CoDel bottleneck, SUSS on
and off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.report import pct, render_table
from repro.experiments.runner import run_single_flow
from repro.net.queue import CoDelQueue, DropTailQueue
from repro.net.topology import build_path
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workloads.flows import MB
from repro.workloads.scenarios import PathScenario, get_scenario


@dataclass
class AqmCell:
    queue_kind: str
    cc: str
    fct: float
    loss_rate: float
    retransmissions: int


def _build(scenario: PathScenario, queue_kind: str, seed: int):
    sim = Simulator()
    rng = RngRegistry(seed)
    if queue_kind == "droptail":
        queue = DropTailQueue(scenario.buffer_bytes, name="btl.fwd.q")
    elif queue_kind == "codel":
        queue = CoDelQueue(scenario.buffer_bytes, name="btl.fwd.codel")
    elif queue_kind == "codel-ecn":
        queue = CoDelQueue(scenario.buffer_bytes, name="btl.fwd.codel",
                           ecn=True)
    else:
        raise ValueError(f"unknown queue kind {queue_kind!r}")
    net = build_path(sim, scenario.bandwidth_profile(rng), scenario.rtt,
                     scenario.buffer_bytes, queue=queue)
    return sim, net


def run(size: int = 4 * MB, seed: int = 0,
        scenario: PathScenario = None,
        queue_kinds: Sequence[str] = ("droptail", "codel", "codel-ecn"),
        ccs: Sequence[str] = ("cubic", "cubic+suss")) -> List[AqmCell]:
    if scenario is None:
        scenario = get_scenario("google-tokyo", "wired")
    cells: List[AqmCell] = []
    for queue_kind in queue_kinds:
        for cc in ccs:
            sim, net = _build(scenario, queue_kind, seed)
            result = run_single_flow(scenario, cc, size, seed=seed,
                                     ecn=(queue_kind == "codel-ecn"),
                                     net=net, sim=sim)
            if result.fct is None:
                raise RuntimeError(f"{cc}/{queue_kind} did not finish")
            cells.append(AqmCell(queue_kind=queue_kind, cc=cc,
                                 fct=result.fct,
                                 loss_rate=result.loss_rate,
                                 retransmissions=result.retransmissions))
    return cells


def suss_improvement(cells: Sequence[AqmCell], queue_kind: str) -> float:
    by_cc = {c.cc: c for c in cells if c.queue_kind == queue_kind}
    return (by_cc["cubic"].fct - by_cc["cubic+suss"].fct) / by_cc["cubic"].fct


def format_report(cells: Sequence[AqmCell]) -> str:
    rows = [[c.queue_kind, c.cc, f"{c.fct:.3f}",
             f"{c.loss_rate * 100:.3f}%", c.retransmissions]
            for c in cells]
    table = render_table(["bottleneck queue", "cc", "FCT (s)", "loss",
                          "retransmits"], rows,
                         title="Extension — SUSS under AQM (CoDel)")
    kinds = sorted({c.queue_kind for c in cells})
    footer = "  ".join(
        f"improvement[{k}]={pct(suss_improvement(cells, k))}" for k in kinds)
    return table + "\n" + footer
