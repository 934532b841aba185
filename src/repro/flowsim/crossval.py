"""Cross-validation: the analytical tier scored against the packet tier.

A closed-form model is only as trustworthy as its agreement with the
packet-level simulator on the scenarios where both can run.  This
harness runs identical (scenario, flow size, scheme) cells through
both tiers — the packet tier over several seeds (jitter gives seed
diversity), the analytical tier once — and scores:

* the **relative median-FCT error** per cell, gated at
  :data:`TOLERANCE_REL_MEDIAN_FCT` (the documented trust boundary of
  DESIGN.md §9), and
* **Cliff's delta** between the paired per-cell FCT vectors of the two
  tiers, a distribution-level check that the analytical tier is not
  systematically biased to one side.

The packet runs here deliberately re-implement the minimal single-flow
recipe (simulator + scenario build + one transfer) instead of calling
:mod:`repro.experiments.runner`: ``flowsim`` sits *below* the
experiments layer in the layering DAG, so the reference runner lives on
this side of the boundary.  The golden agreement numbers are committed
in ``tests/golden/flowsim_crossval.json`` so model drift fails loudly.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.units import MBPS, Bytes, Seconds
from repro.flowsim.model import FlowEstimate, PathParams, create_model
from repro.metrics.summary import percentile
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.connection import open_transfer
from repro.validate.stats import cliffs_delta
from repro.workloads.scenarios import PathScenario

#: documented trust boundary: the analytical tier's median FCT must sit
#: within this relative distance of the packet tier's on every golden
#: scenario (acceptance criterion; DESIGN.md §9).
TOLERANCE_REL_MEDIAN_FCT = 0.15

#: packet↔analytical scheme pairing: the packet tier's algorithm name
#: and the analytical model that claims to reproduce its FCT.
SCHEME_PAIRS: Dict[str, str] = {
    "cubic": "csa00",
    "cubic+suss": "csa00+suss",
}


def _dumbbell(name: str, rtt: Seconds, mbps: float) -> PathScenario:
    """A clean validation dumbbell: fixed bandwidth, tiny jitter for
    seed diversity, no random loss."""
    return PathScenario(name=name, server="crossval", link_type="wired",
                        client_location="lab", rtt=rtt, btl_bw=mbps * MBPS,
                        bw_variation=0.0, jitter=0.0002, loss_rate=0.0,
                        buffer_bdp=1.5)


#: the golden validation matrix: {low, high} BDP x {short, long} flows
#: x {cubic, cubic+suss} — eight cells (acceptance asks for >= 6).
LOW_BDP = _dumbbell("xval-low-bdp", rtt=0.04, mbps=20.0)     # ~66 segments
HIGH_BDP = _dumbbell("xval-high-bdp", rtt=0.15, mbps=100.0)  # ~1250 segments
SHORT_FLOW = 60_000       # ~42 segments: lives and dies in slow start
LONG_FLOW = 4_000_000     # ~2763 segments: saturates the pipe


@dataclass(frozen=True)
class CrossValCase:
    """One validation cell: a scenario/size/scheme triple plus seeds.

    ``gated`` cells must sit inside the tolerance band for the report to
    pass; ungated cells are *informational* — they quantify the
    analytical tier's error on path classes (jitter-heavy, bandwidth-
    varying) that its closed forms deliberately do not model, and are
    recorded in the report without failing it.
    """

    name: str
    scenario: PathScenario
    cc: str                      # packet-tier algorithm
    size_bytes: Bytes
    seeds: Tuple[int, ...] = (1, 2, 3)
    gated: bool = True
    scenario_class: str = "clean"

    @property
    def model(self) -> str:
        return SCHEME_PAIRS[self.cc]


def default_cases() -> List[CrossValCase]:
    """The full golden matrix (eight cells)."""
    cases: List[CrossValCase] = []
    for bdp_name, scenario in (("low", LOW_BDP), ("high", HIGH_BDP)):
        for size_name, size in (("short", SHORT_FLOW), ("long", LONG_FLOW)):
            for cc in SCHEME_PAIRS:
                suffix = "suss" if cc.endswith("suss") else "base"
                cases.append(CrossValCase(
                    name=f"{bdp_name}bdp-{size_name}-{suffix}",
                    scenario=scenario, cc=cc, size_bytes=size))
    return cases


#: perturbed dumbbells for the informational cells: the same low-BDP
#: path with (a) jitter at 10% of the RTT and (b) a ±25% random-walk
#: bottleneck — both outside the analytical tier's clean-path model.
JITTER_PATH = replace(LOW_BDP, name="xval-jitter", jitter=0.004)
BWVAR_PATH = replace(LOW_BDP, name="xval-bwvar", bw_variation=0.25)


def perturbed_cases() -> List[CrossValCase]:
    """Informational (ungated) cells on jitter/bw-variation classes.

    These quantify the flowsim trust boundary beyond the golden matrix:
    how far the analytical FCT drifts when the path violates the fixed-
    RTT / fixed-bandwidth assumptions.  Their errors are recorded in the
    report's ``class_errors`` section but never fail the gate.
    """
    cases: List[CrossValCase] = []
    for cls, scenario in (("jitter", JITTER_PATH), ("bw_variation",
                                                    BWVAR_PATH)):
        for size_name, size in (("short", SHORT_FLOW), ("long", LONG_FLOW)):
            for cc in SCHEME_PAIRS:
                suffix = "suss" if cc.endswith("suss") else "base"
                cases.append(CrossValCase(
                    name=f"{cls.replace('_', '')}-{size_name}-{suffix}",
                    scenario=scenario, cc=cc, size_bytes=size,
                    gated=False, scenario_class=cls))
    return cases


def all_cases() -> List[CrossValCase]:
    """Golden matrix plus the informational perturbed-path cells."""
    return default_cases() + perturbed_cases()


def quick_cases() -> List[CrossValCase]:
    """CI-budget subset: every BDP x scheme corner on short flows, plus
    one long-flow cell per scheme, with a single seed each."""
    chosen = {"lowbdp-short-base", "lowbdp-short-suss",
              "highbdp-short-base", "highbdp-short-suss",
              "highbdp-long-base", "highbdp-long-suss"}
    return [replace(case, seeds=(1,)) for case in default_cases()
            if case.name in chosen]


def packet_fct(scenario: PathScenario, cc: str, size_bytes: Bytes,
               seed: int) -> Seconds:
    """Reference packet-tier FCT for one seeded single-flow download."""
    sim = Simulator()
    rng = RngRegistry(seed)
    net = scenario.build(sim, rng)
    transfer = open_transfer(sim, net.servers[0], net.clients[0], flow_id=1,
                             size_bytes=size_bytes, cc=cc)
    deadline = 60.0 + 40.0 * size_bytes / scenario.btl_bw + 200.0 * scenario.rtt
    sim.run(until=deadline)
    # The runner's epilogue, inlined: flowsim sits below experiments.
    if sim.sanitizer is not None:
        sim.sanitizer.verify_conservation(sim.pending_events)
    if not transfer.completed or transfer.fct is None:
        raise RuntimeError(
            f"packet reference flow did not complete: {scenario.name} "
            f"cc={cc} size={size_bytes} seed={seed}")
    return transfer.fct


@dataclass(frozen=True)
class CaseResult:
    """Agreement numbers for one validation cell."""

    name: str
    cc: str
    model: str
    size_bytes: Bytes
    packet_fcts: Tuple[Seconds, ...]
    packet_median: Seconds
    analytical_fct: Seconds
    rel_median_error: float
    gated: bool = True
    scenario_class: str = "clean"

    def within(self, tolerance: float = TOLERANCE_REL_MEDIAN_FCT) -> bool:
        return self.rel_median_error <= tolerance

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name, "cc": self.cc, "model": self.model,
            "size_bytes": self.size_bytes,
            "packet_fcts": list(self.packet_fcts),
            "packet_median": self.packet_median,
            "analytical_fct": self.analytical_fct,
            "rel_median_error": self.rel_median_error,
            "gated": self.gated,
            "scenario_class": self.scenario_class,
        }


def run_case(case: CrossValCase) -> CaseResult:
    fcts = tuple(packet_fct(case.scenario, case.cc, case.size_bytes, seed)
                 for seed in case.seeds)
    median = percentile(fcts, 50.0)
    path = PathParams.from_scenario(case.scenario)
    est: FlowEstimate = create_model(case.model).estimate(case.size_bytes,
                                                          path)
    rel = abs(est.fct - median) / median
    return CaseResult(name=case.name, cc=case.cc, model=case.model,
                      size_bytes=case.size_bytes, packet_fcts=fcts,
                      packet_median=median, analytical_fct=est.fct,
                      rel_median_error=rel, gated=case.gated,
                      scenario_class=case.scenario_class)


@dataclass(frozen=True)
class CrossValReport:
    """All cell results plus the distribution-level agreement score."""

    cases: Tuple[CaseResult, ...]
    tolerance: float

    @property
    def gated_cases(self) -> Tuple[CaseResult, ...]:
        return tuple(c for c in self.cases if c.gated)

    @property
    def max_rel_error(self) -> float:
        """Worst gated error (the tolerance gate's headline number)."""
        return max(c.rel_median_error for c in self.gated_cases)

    @property
    def worst_case(self) -> str:
        return max(self.gated_cases,
                   key=lambda c: c.rel_median_error).name

    @property
    def delta(self) -> float:
        """Cliff's delta between the tiers' per-cell FCT vectors (near 0
        means no systematic bias toward either tier; gated cells only —
        the perturbed classes are expected to be biased)."""
        packet = [c.packet_median for c in self.gated_cases]
        analytical = [c.analytical_fct for c in self.gated_cases]
        return cliffs_delta(analytical, packet)

    @property
    def passed(self) -> bool:
        """Informational (ungated) cells never fail the gate."""
        return all(c.within(self.tolerance) for c in self.gated_cases)

    def class_errors(self) -> Dict[str, Dict[str, float]]:
        """Per-scenario-class relative-error statistics over all cells.

        This is where the perturbed classes' quantified error lives:
        ``clean`` is the gated matrix, ``jitter``/``bw_variation`` the
        informational classes.
        """
        grouped: Dict[str, List[float]] = {}
        for case in self.cases:
            grouped.setdefault(case.scenario_class, []).append(
                case.rel_median_error)
        return {cls: {"cells": float(len(errs)),
                      "mean_rel_error": sum(errs) / len(errs),
                      "max_rel_error": max(errs)}
                for cls, errs in sorted(grouped.items())}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tolerance": self.tolerance,
            "passed": self.passed,
            "max_rel_error": self.max_rel_error,
            "worst_case": self.worst_case,
            "cliffs_delta": self.delta,
            "class_errors": self.class_errors(),
            "cases": [c.to_dict() for c in self.cases],
        }


def run_crossval(cases: Optional[Sequence[CrossValCase]] = None,
                 tolerance: float = TOLERANCE_REL_MEDIAN_FCT
                 ) -> CrossValReport:
    """Run every cell through both tiers and score agreement."""
    chosen = list(cases) if cases is not None else default_cases()
    if not chosen:
        raise ValueError("need at least one cross-validation case")
    if not any(c.gated for c in chosen):
        raise ValueError("need at least one gated cross-validation case")
    return CrossValReport(cases=tuple(run_case(c) for c in chosen),
                          tolerance=tolerance)
