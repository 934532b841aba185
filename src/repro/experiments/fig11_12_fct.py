"""Figs. 11 & 12 — FCT versus flow size for the Tokyo scenarios.

Fig. 11: mean FCT (with deviation) of BBR, CUBIC+SUSS-on, CUBIC+SUSS-off
across flow sizes, for the four last-hop link types with the server in the
Google Tokyo data center.  Fig. 12 is the derived per-size relative FCT
improvement of SUSS.  The paper's headline: >20 % improvement for flows up
to 2 MB in all four scenarios, diminishing for larger flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.experiments.report import pct, render_table
from repro.experiments.runner import fct_summary
from repro.metrics.summary import Summary, improvement
from repro.workloads.flows import MB
from repro.workloads.scenarios import PathScenario, get_scenario

DEFAULT_SIZES = (int(0.5 * MB), 1 * MB, 2 * MB, 4 * MB, 8 * MB, 12 * MB)
SCHEMES = ("bbr", "cubic+suss", "cubic")

#: paper claims checked by ``repro validate`` against this harness
#: (see :mod:`repro.validate.claims`).
CLAIM_IDS = ("fig11-fct-wired-2mb", "fig11-fct-5g-2mb",
             "fig11-fct-wifi-1mb", "fig11-fct-vs-bbr-wired",
             "fig12-fct-4g-no-regression")


@dataclass
class FctSweep:
    """FCT sweep for one scenario: scheme -> size -> Summary."""

    scenario: PathScenario
    sizes: Tuple[int, ...]
    fct: Dict[str, Dict[int, Summary]] = field(default_factory=dict)

    def improvement_at(self, size: int) -> float:
        """Fig. 12: SUSS's relative FCT improvement over plain CUBIC."""
        return improvement(self.fct["cubic"][size].mean,
                           self.fct["cubic+suss"][size].mean)


def run(links: Sequence[str] = ("5g", "wired", "wifi", "4g"),
        server: str = "google-tokyo", sizes: Sequence[int] = DEFAULT_SIZES,
        iterations: int = 5, base_seed: int = 0,
        schemes: Sequence[str] = SCHEMES) -> Dict[str, FctSweep]:
    """The four Fig. 11 sub-figures (one per link type)."""
    sweeps: Dict[str, FctSweep] = {}
    for link in links:
        scenario = get_scenario(server, link)
        sweep = sweeps[link] = FctSweep(scenario=scenario, sizes=tuple(sizes))
        for scheme in schemes:
            sweep.fct[scheme] = {
                size: fct_summary(scenario, scheme, size, iterations,
                                  base_seed)
                for size in sizes}
    return sweeps


def format_report(sweeps: Dict[str, FctSweep]) -> str:
    blocks: List[str] = []
    for link, sweep in sweeps.items():
        rows = []
        for size in sweep.sizes:
            row: List[object] = [size / MB]
            for scheme in ("bbr", "cubic", "cubic+suss"):
                if scheme in sweep.fct:
                    s = sweep.fct[scheme][size]
                    row.append(f"{s.mean:.2f}±{s.std:.2f}")
                else:
                    row.append("-")
            row.append(pct(sweep.improvement_at(size)))
            rows.append(row)
        blocks.append(render_table(
            ["size (MB)", "BBR", "CUBIC (SUSS off)", "CUBIC (SUSS on)",
             "Fig.12 improvement"], rows,
            title=f"Fig. 11/12 — FCT, {sweep.scenario.name}"))
    return "\n\n".join(blocks)
