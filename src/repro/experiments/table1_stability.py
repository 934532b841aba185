"""Table 1 — SUSS improves small-flow FCT without destabilising a large flow.

Grid: large-flow CCA ∈ {CUBIC, BBRv1, BBRv2} × bottleneck buffer ∈
{1, 2} BDP × large-flow minRTT ∈ {25, 50, 100, 200 ms}; in each cell the
twelve small CUBIC flows run with SUSS off and with SUSS on.  Reported per
cell: FCT of the large flow, mean FCT of the small flows, and the relative
small-flow improvement.  Paper averages: ~32 % (CUBIC), ~28 % (BBRv1),
~26 % (BBRv2) improvement with no meaningful large-flow regression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.units import MILLIS_PER_SECOND, Seconds
from repro.campaign.scheduler import collect_values, run_campaign
from repro.campaign.spec import stability_job
from repro.campaign.store import ResultStore
from repro.experiments.fig16_stability_trace import PAIR_RTTS
from repro.experiments.report import pct, render_table
from repro.metrics.summary import summarize
from repro.obs.runtime import RunTelemetry
from repro.workloads.flows import MB

DEFAULT_RTTS = (0.025, 0.050, 0.100, 0.200)
DEFAULT_BUFFERS = (1.0, 2.0)
LARGE_CCAS = ("cubic", "bbr", "bbr2")

#: paper claims checked by ``repro validate`` against this harness
#: (see :mod:`repro.validate.claims`).
CLAIM_IDS = ("table1-small-flow-cubic", "table1-large-flow-cubic")


@dataclass(frozen=True)
class Table1Key:
    large_cc: str
    buffer_bdp: float
    large_rtt: Seconds


@dataclass
class Table1Cell:
    """FCTs for one (large CCA, buffer, RTT) configuration."""

    large_fct_off: float
    small_fct_off: float
    large_fct_on: float
    small_fct_on: float

    @property
    def small_improvement(self) -> float:
        return (self.small_fct_off - self.small_fct_on) / self.small_fct_off


def _aggregate(values: List[dict], horizon: float) -> Tuple[float, float]:
    """Mean (large FCT, mean small FCT) over one config's iterations."""
    large_fcts: List[float] = []
    small_fcts: List[float] = []
    for value in values:
        large = value["large_fct"]
        # An unfinished large flow counts as the horizon (conservative).
        large_fcts.append(large if large is not None else horizon)
        if value["small_fct_mean"] is None:
            raise RuntimeError("no small flow completed; horizon too short")
        small_fcts.append(value["small_fct_mean"])
    return summarize(large_fcts).mean, summarize(small_fcts).mean


def run(large_ccas: Sequence[str] = LARGE_CCAS,
        buffers: Sequence[float] = DEFAULT_BUFFERS,
        rtts: Sequence[float] = DEFAULT_RTTS,
        large_size: int = 150 * MB, small_size: int = 2 * MB,
        n_small: int = 12, bottleneck_mbps: float = 50.0,
        horizon: float = 60.0, iterations: int = 1,
        base_seed: int = 0, *, jobs: int = 1,
        store: Optional[ResultStore] = None,
        telemetry: Optional[RunTelemetry] = None
        ) -> Dict[Table1Key, Table1Cell]:
    """Run the full Table 1 grid (3 x 2 x 4 configurations, on + off).

    Every (config, SUSS on/off, seed) combination is one campaign job, so
    the whole grid fans out over ``jobs`` workers and caches per run.
    """
    configs = [(large_cc, buffer_bdp, rtt, suss)
               for large_cc in large_ccas
               for buffer_bdp in buffers
               for rtt in rtts
               for suss in (False, True)]
    specs = [stability_job(large_cc, buffer_bdp, rtt, suss, large_size,
                           small_size, n_small, bottleneck_mbps, horizon,
                           base_seed + i, (rtt,) + PAIR_RTTS[1:])
             for large_cc, buffer_bdp, rtt, suss in configs
             for i in range(iterations)]
    values = collect_values(run_campaign(specs, jobs=jobs, store=store,
                                         telemetry=telemetry))

    halves: Dict[Tuple[str, float, float, bool], Tuple[float, float]] = {}
    for slot, config in enumerate(configs):
        chunk = values[slot * iterations:(slot + 1) * iterations]
        halves[config] = _aggregate(chunk, horizon)

    cells: Dict[Table1Key, Table1Cell] = {}
    for large_cc, buffer_bdp, rtt, _ in configs[::2]:
        lf_off, sf_off = halves[(large_cc, buffer_bdp, rtt, False)]
        lf_on, sf_on = halves[(large_cc, buffer_bdp, rtt, True)]
        cells[Table1Key(large_cc, buffer_bdp, rtt)] = Table1Cell(
            large_fct_off=lf_off, small_fct_off=sf_off,
            large_fct_on=lf_on, small_fct_on=sf_on)
    return cells


def average_improvement(cells: Dict[Table1Key, Table1Cell],
                        large_cc: str) -> float:
    """Mean small-flow improvement for one large-flow CCA (Table 1 average)."""
    values = [cell.small_improvement for key, cell in cells.items()
              if key.large_cc == large_cc]
    if not values:
        raise KeyError(f"no cells for large CCA {large_cc!r}")
    return sum(values) / len(values)


def format_report(cells: Dict[Table1Key, Table1Cell]) -> str:
    rows = []
    for key in sorted(cells, key=lambda k: (k.large_cc, k.buffer_bdp,
                                            k.large_rtt)):
        cell = cells[key]
        rows.append([key.large_cc, key.buffer_bdp,
                     f"{key.large_rtt * MILLIS_PER_SECOND:.0f} ms",
                     f"{cell.large_fct_off:.1f}", f"{cell.small_fct_off:.2f}",
                     f"{cell.large_fct_on:.1f}", f"{cell.small_fct_on:.2f}",
                     pct(cell.small_improvement)])
    table = render_table(
        ["large CCA", "buffer (BDP)", "minRTT",
         "large FCT (off)", "small FCT (off)",
         "large FCT (on)", "small FCT (on)", "improvement"],
        rows, title="Table 1 — stability under SUSS small flows")
    ccas = sorted({k.large_cc for k in cells})
    footer = "  ".join(f"avg[{cc}]={pct(average_improvement(cells, cc))}"
                       for cc in ccas)
    return table + "\n" + footer
