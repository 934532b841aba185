"""Topogen scenario suite — SUSS across the scenario-class taxonomy.

One campaign per run: every registered topogen scenario (parking-lot,
multi-bottleneck, routed mesh, LFN/satellite) crossed with
{CUBIC, CUBIC+SUSS} over seeded iterations, with each spec's declared
cross-traffic placed.  The report answers the SUSS question per
scenario class: how much FCT does compressed slow start win where
slow-start dominates (LFN), and does it stay harmless where the path is
shared and multi-hop?

``repro validate`` binds the topo-class claims to this harness (see
``CLAIM_IDS``); ``repro experiment topo`` renders the full table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.campaign.scheduler import collect_values, run_campaign
from repro.campaign.spec import topo_flow_job
from repro.campaign.store import ResultStore
from repro.experiments.report import pct, render_table
from repro.metrics.summary import Summary, improvement, summarize
from repro.obs.runtime import RunTelemetry
from repro.workloads.flows import MB
from repro.workloads.topo import registered_specs

#: paper claims checked by ``repro validate`` against this harness
#: (see :mod:`repro.validate.claims`).
CLAIM_IDS = (
    "topo-lfn-fct-improvement",
    "topo-parking-lot-no-harm",
    "topo-multi-bottleneck-no-harm",
    "topo-mesh-no-harm",
)

SCHEMES = ("cubic+suss", "cubic")

DEFAULT_SIZE = 2 * MB


@dataclass
class TopoRow:
    """Per-scenario aggregates across schemes."""

    scenario: str
    scenario_class: str
    size: int
    fct: Dict[str, Summary] = field(default_factory=dict)
    loss: Dict[str, Summary] = field(default_factory=dict)

    @property
    def suss_improvement(self) -> float:
        return improvement(self.fct["cubic"].mean,
                           self.fct["cubic+suss"].mean)


def run_suite(scenarios: Optional[Sequence[str]] = None,
              sizes: Sequence[int] = (DEFAULT_SIZE,), iterations: int = 3,
              base_seed: int = 0, *, cross_load: float = 1.0,
              jobs: int = 1, store: Optional[ResultStore] = None,
              timeout: Optional[float] = None, retries: int = 2,
              telemetry: Optional[RunTelemetry] = None) -> List[TopoRow]:
    """Run the size x scenario x scheme x seed matrix as one cached
    campaign; the rows come back in that (size-major) order."""
    chosen = (list(scenarios) if scenarios is not None
              else sorted(registered_specs()))
    specs = [topo_flow_job(name, scheme, size, seed=base_seed + i,
                           cross_load=cross_load)
             for size in sizes
             for name in chosen
             for scheme in SCHEMES
             for i in range(iterations)]
    values = collect_values(run_campaign(
        specs, jobs=jobs, store=store, timeout=timeout, retries=retries,
        telemetry=telemetry))
    rows: List[TopoRow] = []
    cursor = 0
    for size in sizes:
        for name in chosen:
            row: Optional[TopoRow] = None
            for scheme in SCHEMES:
                chunk = values[cursor:cursor + iterations]
                cursor += iterations
                for value in chunk:
                    if not value["completed"]:
                        raise RuntimeError(
                            f"{name} {scheme} did not complete "
                            f"(seed {value['seed']})")
                if row is None:
                    row = TopoRow(scenario=name,
                                  scenario_class=chunk[0]["scenario_class"],
                                  size=size)
                row.fct[scheme] = summarize([v["fct"] for v in chunk])
                row.loss[scheme] = summarize([v["loss_rate"] for v in chunk])
            rows.append(row)
    return rows


def format_report(rows: Sequence[TopoRow]) -> str:
    table_rows = [[row.scenario, row.scenario_class,
                   f"{row.fct['cubic'].mean:.3f}",
                   f"{row.fct['cubic+suss'].mean:.3f}",
                   pct(row.suss_improvement)]
                  for row in rows]
    return render_table(
        ["scenario", "class", "CUBIC FCT (s)", "+SUSS FCT (s)",
         "improvement"],
        table_rows,
        title="Topogen suite — SUSS FCT effect per scenario class")


def run(size: int = DEFAULT_SIZE, iterations: int = 3, base_seed: int = 0,
        **campaign_kwargs) -> List[TopoRow]:
    """CLI entry: run the full registered suite and print the table."""
    rows = run_suite(sizes=(size,), iterations=iterations,
                     base_seed=base_seed, **campaign_kwargs)
    print(format_report(rows))
    return rows
