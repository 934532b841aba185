"""Extension — SUSS integrated with BBR's startup (paper Section 7).

The paper leaves SUSS on BBR as future work.  This harness races BBR
against BBR+SUSS on a stable wired path and on Fig. 9's jittery 4G path
over three flow sizes.  The expected signature is a small but consistent
FCT gain and never a meaningful regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.experiments.report import pct, render_table
from repro.experiments.runner import fct_summary
from repro.metrics.summary import Summary, improvement
from repro.workloads.flows import MB
from repro.workloads.scenarios import FIG9_SCENARIO, get_scenario


@dataclass
class BbrSussRow:
    scenario: str
    size: int
    bbr: Summary
    suss: Summary

    @property
    def gain(self) -> float:
        """Relative FCT improvement of BBR+SUSS over plain BBR."""
        return improvement(self.bbr.mean, self.suss.mean)


#: the stable wired path and Fig. 9's jittery 4G path
SCENARIOS = (get_scenario("google-tokyo", "wired"), FIG9_SCENARIO)
SIZES = (1 * MB, 2 * MB, 4 * MB)


def run() -> List[BbrSussRow]:
    """One seed-0 download per path, size and algorithm."""
    return [BbrSussRow(scenario=scenario.name, size=size,
                       bbr=fct_summary(scenario, "bbr", size, iterations=1),
                       suss=fct_summary(scenario, "bbr+suss", size,
                                         iterations=1))
            for scenario in SCENARIOS for size in SIZES]


def format_report(rows: Sequence[BbrSussRow]) -> str:
    table_rows = [[row.scenario, row.size / MB, f"{row.bbr.mean:.3f}",
                   f"{row.suss.mean:.3f}", pct(row.gain)] for row in rows]
    return render_table(
        ["path", "size (MB)", "BBR FCT", "BBR+SUSS FCT", "gain"],
        table_rows, title="Extension — SUSS on BBR startup (Section 7)")
