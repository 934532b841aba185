"""Figs. 17 & 18 — the full 28-scenario matrix (7 servers x 4 link types).

Fig. 18: FCT of BBR, CUBIC+SUSS-on, CUBIC+SUSS-off per scenario and flow
size, with SUSS's relative improvement.  Fig. 17: packet-loss rates for
the same runs.  Paper headline: CUBIC+SUSS beats CUBIC in all 28
scenarios and loses to BBR in only one; loss is noticeable mainly on
Oracle + high-speed-link paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.campaign.scheduler import collect_values, run_campaign
from repro.campaign.spec import single_flow_job
from repro.campaign.store import ResultStore
from repro.core.units import MB, Seconds
from repro.experiments.report import pct, render_table
from repro.metrics.summary import Summary, improvement, summarize
from repro.obs.runtime import RunTelemetry
from repro.workloads.scenarios import (
    INTERNET_SCENARIOS,
    LINK_NAMES,
    SERVER_NAMES,
    get_scenario,
)

DEFAULT_SIZES = (1 * MB, 2 * MB, 4 * MB)
SCHEMES = ("bbr", "cubic+suss", "cubic")


@dataclass
class ScenarioRow:
    """Per-(scenario, size) aggregates across schemes."""

    scenario: str
    size: int
    fct: Dict[str, Summary] = field(default_factory=dict)
    loss: Dict[str, Summary] = field(default_factory=dict)

    @property
    def suss_improvement(self) -> float:
        return improvement(self.fct["cubic"].mean,
                           self.fct["cubic+suss"].mean)

    @property
    def suss_beats_cubic(self) -> bool:
        return self.fct["cubic+suss"].mean <= self.fct["cubic"].mean

    @property
    def suss_beats_bbr(self) -> bool:
        return self.fct["cubic+suss"].mean <= self.fct["bbr"].mean


def run_matrix(servers: Sequence[str] = tuple(SERVER_NAMES),
               links: Sequence[str] = tuple(LINK_NAMES),
               sizes: Sequence[int] = DEFAULT_SIZES,
               iterations: int = 3, base_seed: int = 0,
               schemes: Sequence[str] = SCHEMES, *,
               jobs: int = 1, store: Optional[ResultStore] = None,
               timeout: Optional[Seconds] = None,
               retries: int = 2,
               telemetry: Optional[RunTelemetry] = None
               ) -> List[ScenarioRow]:
    """Run the (sub-)matrix; default covers all 28 scenarios.

    The full matrix is flattened into one campaign (scenario × size ×
    scheme × seed) and fanned out over ``jobs`` workers; with a ``store``
    repeated/interrupted runs only compute cache misses.  Results are
    assembled in deterministic matrix order, so the rows are identical at
    any ``jobs`` level.
    """
    cells = [(get_scenario(server, link), size)
             for server in servers for link in links for size in sizes]
    specs = [single_flow_job(scenario, scheme, size, seed=base_seed + i)
             for scenario, size in cells
             for scheme in schemes
             for i in range(iterations)]
    values = collect_values(run_campaign(
        specs, jobs=jobs, store=store, timeout=timeout, retries=retries,
        telemetry=telemetry))

    rows: List[ScenarioRow] = []
    cursor = 0
    for scenario, size in cells:
        row = ScenarioRow(scenario=scenario.name, size=size)
        for scheme in schemes:
            chunk = values[cursor:cursor + iterations]
            cursor += iterations
            for value in chunk:
                if not value["completed"]:
                    raise RuntimeError(
                        f"{scenario.name} {scheme} {size} did not "
                        f"complete (seed {value['seed']})")
            row.fct[scheme] = summarize([v["fct"] for v in chunk])
            row.loss[scheme] = summarize([v["loss_rate"] for v in chunk])
        rows.append(row)
    return rows


def win_counts(rows: Sequence[ScenarioRow]) -> Tuple[int, int, int]:
    """(scenarios where SUSS beats CUBIC, where it beats BBR, total).

    A scenario counts as a win if SUSS wins on the mean over its sizes.
    """
    by_scenario: Dict[str, List[ScenarioRow]] = {}
    for row in rows:
        by_scenario.setdefault(row.scenario, []).append(row)
    beats_cubic = beats_bbr = 0
    for scenario_rows in by_scenario.values():
        mean = lambda scheme: (sum(r.fct[scheme].mean for r in scenario_rows)
                               / len(scenario_rows))
        if mean("cubic+suss") <= mean("cubic"):
            beats_cubic += 1
        if "bbr" in scenario_rows[0].fct and mean("cubic+suss") <= mean("bbr"):
            beats_bbr += 1
    return beats_cubic, beats_bbr, len(by_scenario)


def format_fct_report(rows: Sequence[ScenarioRow]) -> str:
    table_rows = []
    for row in rows:
        table_rows.append([
            row.scenario, row.size / MB,
            f"{row.fct['bbr'].mean:.2f}" if "bbr" in row.fct else "-",
            f"{row.fct['cubic'].mean:.2f}",
            f"{row.fct['cubic+suss'].mean:.2f}",
            pct(row.suss_improvement)])
    table = render_table(
        ["scenario", "size (MB)", "BBR", "CUBIC off", "CUBIC on",
         "improvement"], table_rows,
        title="Fig. 18 — FCT across internet scenarios")
    wins_cubic, wins_bbr, total = win_counts(rows)
    return (f"{table}\nSUSS beats CUBIC in {wins_cubic}/{total} scenarios, "
            f"beats BBR in {wins_bbr}/{total}")


def format_loss_report(rows: Sequence[ScenarioRow]) -> str:
    table_rows = []
    for row in rows:
        cells = [row.scenario, row.size / MB]
        for scheme in ("bbr", "cubic", "cubic+suss"):
            if scheme in row.loss:
                cells.append(f"{row.loss[scheme].mean * 100:.3f}%")
            else:
                cells.append("-")
        table_rows.append(cells)
    return render_table(
        ["scenario", "size (MB)", "BBR loss", "CUBIC off loss",
         "CUBIC on loss"], table_rows,
        title="Fig. 17 — packet loss across internet scenarios")
