"""Declarative registry of the paper's checkable claims.

A :class:`Claim` encodes one assertion from the SUSS paper's evaluation
as data: which experiment harness backs it, how its baseline and
treatment arms expand into multi-seed :class:`~repro.campaign.spec.JobSpec`
fan-outs, which metric each job result contributes, in which direction
the treatment is supposed to win, and by how much.  The replication
driver (:mod:`repro.validate.driver`) turns claims into campaign jobs
and folds the results into verdicts.

Claims never run anything when imported; they only *describe*.  Each
experiment harness lists the claims that cover it in a module-level
``CLAIM_IDS`` tuple, and ``tests/test_validate_claims.py`` asserts both
directions of that binding so the registry and the harnesses cannot
drift apart.

Modes: ``quick`` uses scaled-down workloads and few seeds (the PR smoke
gate, under two minutes cold); ``full`` uses paper-scale settings (the
scheduled CI job).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.campaign.spec import (
    JobSpec,
    fairness_job,
    single_flow_job,
    stability_job,
    topo_flow_job,
)
from repro.experiments.fig16_stability_trace import PAIR_RTTS
from repro.workloads.flows import MB
from repro.workloads.scenarios import FIG13_SCENARIO, FIG14_SCENARIO

MODES = ("quick", "full")

#: statistical-test families a claim can gate on
KINDS = ("improvement", "non_regression")

#: which way the metric is better: smaller ("lower") or larger ("higher")
DIRECTIONS = ("lower", "higher")

#: effect scale: "relative" divides by the baseline mean, "absolute" does not
EFFECTS = ("relative", "absolute")


@dataclass(frozen=True)
class Claim:
    """One checkable paper assertion, bound to an experiment harness.

    ``build_arms(mode, base_seed)`` expands to ``{"baseline": [specs],
    "treatment": [specs]}``; ``extract(value)`` pulls this claim's scalar
    metric out of one job-result dict (the same extractor serves both
    arms).  ``threshold`` is the minimum improvement (``improvement``
    kind) or the maximum tolerated regression (``non_regression`` kind),
    on the ``effect`` scale.
    """

    id: str
    title: str
    paper: str                  # paper anchor, e.g. "Fig. 11/12"
    harness: str                # repro.experiments module this validates
    kind: str
    direction: str
    effect: str
    threshold: float
    build_arms: Callable[[str, int], Dict[str, List[JobSpec]]] = field(
        compare=False, repr=False)
    extract: Callable[[Mapping[str, Any]], float] = field(
        compare=False, repr=False)
    alpha: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown claim kind {self.kind!r}")
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")
        if self.effect not in EFFECTS:
            raise ValueError(f"unknown effect scale {self.effect!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be strictly inside (0, 1)")


CLAIMS: Dict[str, Claim] = {}


def register_claim(claim: Claim) -> Claim:
    """Add ``claim`` to the registry; duplicate ids are a bug."""
    if claim.id in CLAIMS:
        raise ValueError(f"duplicate claim id {claim.id!r}")
    CLAIMS[claim.id] = claim
    return claim


def get_claim(claim_id: str) -> Claim:
    if claim_id not in CLAIMS:
        known = ", ".join(sorted(CLAIMS))
        raise KeyError(f"unknown claim {claim_id!r}; known: {known}")
    return CLAIMS[claim_id]


def iter_claims(ids: Optional[Sequence[str]] = None) -> List[Claim]:
    """Claims in registry (id) order, optionally restricted to ``ids``."""
    if ids is None:
        return [CLAIMS[cid] for cid in sorted(CLAIMS)]
    return [get_claim(cid) for cid in ids]


def _mode_count(mode: str, quick: int, full: int) -> int:
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; known: {', '.join(MODES)}")
    return quick if mode == "quick" else full


# ----------------------------------------------------------------------
# Fig. 11/12 — FCT vs flow size (Tokyo scenarios).

def _fct_claim(claim_id: str, title: str, *, scenario: str, size: int,
               baseline_cc: str, treatment_cc: str, kind: str,
               threshold: float, paper: str = "Fig. 11/12",
               harness: str = "fig11_12_fct",
               quick_seeds: int = 5, full_seeds: int = 15) -> Claim:
    def build_arms(mode: str, base_seed: int) -> Dict[str, List[JobSpec]]:
        n = _mode_count(mode, quick_seeds, full_seeds)
        return {
            "baseline": [single_flow_job(scenario, baseline_cc, size,
                                         seed=base_seed + i)
                         for i in range(n)],
            "treatment": [single_flow_job(scenario, treatment_cc, size,
                                          seed=base_seed + i)
                          for i in range(n)],
        }

    return register_claim(Claim(
        id=claim_id, title=title, paper=paper, harness=harness, kind=kind,
        direction="lower", effect="relative", threshold=threshold,
        build_arms=build_arms, extract=lambda value: value["fct"]))


_fct_claim(
    "fig11-fct-wired-2mb",
    "SUSS improves mean FCT over CUBIC by >= 15% for 2 MB flows on the "
    "Tokyo fiber path (paper: > 20%)",
    scenario="google-tokyo/wired", size=2 * MB,
    baseline_cc="cubic", treatment_cc="cubic+suss",
    kind="improvement", threshold=0.15)

_fct_claim(
    "fig11-fct-5g-2mb",
    "SUSS improves mean FCT over CUBIC by >= 15% for 2 MB flows on the "
    "Tokyo 5G path (paper: > 20%)",
    scenario="google-tokyo/5g", size=2 * MB,
    baseline_cc="cubic", treatment_cc="cubic+suss",
    kind="improvement", threshold=0.15)

_fct_claim(
    "fig11-fct-wifi-1mb",
    "SUSS improves mean FCT over CUBIC by >= 10% for 1 MB flows on the "
    "Tokyo WiFi path",
    scenario="google-tokyo/wifi", size=1 * MB,
    baseline_cc="cubic", treatment_cc="cubic+suss",
    kind="improvement", threshold=0.10)

_fct_claim(
    "fig11-fct-vs-bbr-wired",
    "CUBIC+SUSS also beats BBR's mean FCT by >= 10% for 2 MB flows on "
    "the Tokyo fiber path",
    scenario="google-tokyo/wired", size=2 * MB,
    baseline_cc="bbr", treatment_cc="cubic+suss",
    kind="improvement", threshold=0.10)

_fct_claim(
    "fig12-fct-4g-no-regression",
    "SUSS never regresses mean FCT by more than 15% on the jittery Tokyo "
    "4G path (paper: 20-30% improvement, seed-dependent)",
    scenario="google-tokyo/4g", size=2 * MB,
    baseline_cc="cubic", treatment_cc="cubic+suss",
    kind="non_regression", threshold=0.15)


# ----------------------------------------------------------------------
# Fig. 13 — no impact on large flows (DC-to-DC).

def _fig13_claim() -> Claim:
    def build_arms(mode: str, base_seed: int) -> Dict[str, List[JobSpec]]:
        n = _mode_count(mode, 3, 5)
        size = 20 * MB if mode == "quick" else 60 * MB
        return {
            "baseline": [single_flow_job(FIG13_SCENARIO, "cubic", size,
                                         seed=base_seed + i)
                         for i in range(n)],
            "treatment": [single_flow_job(FIG13_SCENARIO, "cubic+suss",
                                          size, seed=base_seed + i)
                          for i in range(n)],
        }

    return register_claim(Claim(
        id="fig13-large-flow-no-regression",
        title="SUSS never slows a large DC-to-DC flow (paper: improvement "
              "tapers to negligible, never negative)",
        paper="Fig. 13", harness="fig13_large_flow",
        kind="non_regression", direction="lower", effect="relative",
        threshold=0.05, build_arms=build_arms,
        extract=lambda value: value["fct"]))


_fig13_claim()


# ----------------------------------------------------------------------
# Fig. 14 — packet loss (Oracle London -> 5G Sweden).

def _fig14_claim() -> Claim:
    def build_arms(mode: str, base_seed: int) -> Dict[str, List[JobSpec]]:
        n = _mode_count(mode, 5, 15)
        return {
            "baseline": [single_flow_job(FIG14_SCENARIO, "cubic", 2 * MB,
                                         seed=base_seed + i)
                         for i in range(n)],
            "treatment": [single_flow_job(FIG14_SCENARIO, "cubic+suss",
                                          2 * MB, seed=base_seed + i)
                          for i in range(n)],
        }

    return register_claim(Claim(
        id="fig14-loss-no-regression",
        title="SUSS pacing does not increase the packet-loss rate of a "
              "2 MB flow by more than 0.2% absolute (paper: SUSS loses "
              "strictly less)",
        paper="Fig. 14", harness="fig14_loss",
        kind="non_regression", direction="lower", effect="absolute",
        threshold=0.002, build_arms=build_arms,
        extract=lambda value: value["loss_rate"]))


_fig14_claim()


# ----------------------------------------------------------------------
# Table 1 — stability: 12 small SUSS flows vs one large flow.

def _stability_arms(mode: str, base_seed: int) -> Dict[str, List[JobSpec]]:
    n = _mode_count(mode, 3, 5)
    if mode == "quick":
        large_size, bottleneck, horizon = 40 * MB, 20.0, 30.0
    else:
        large_size, bottleneck, horizon = 150 * MB, 50.0, 60.0
    rtt, buffer_bdp = 0.05, 1.0

    def spec(suss: bool, seed: int) -> JobSpec:
        return stability_job("cubic", buffer_bdp, rtt, suss, large_size,
                             2 * MB, 12, bottleneck, horizon, seed,
                             (rtt,) + PAIR_RTTS[1:])

    return {
        "baseline": [spec(False, base_seed + i) for i in range(n)],
        "treatment": [spec(True, base_seed + i) for i in range(n)],
    }


def _stability_large_fct(value: Mapping[str, Any]) -> float:
    # An unfinished large flow counts as the horizon: conservative, and
    # keeps the extractor total instead of crashing the fold.
    large = value["large_fct"]
    return large if large is not None else float(value["horizon"])


def _stability_small_fct(value: Mapping[str, Any]) -> float:
    mean = value["small_fct_mean"]
    return mean if mean is not None else float(value["horizon"])


register_claim(Claim(
    id="table1-small-flow-cubic",
    title="With a large CUBIC flow occupying the bottleneck, turning SUSS "
          "on improves mean small-flow FCT by >= 10% (paper Table 1: "
          "~32% average for CUBIC)",
    paper="Table 1", harness="table1_stability",
    kind="improvement", direction="lower", effect="relative",
    threshold=0.10, build_arms=_stability_arms,
    extract=_stability_small_fct))

register_claim(Claim(
    id="table1-large-flow-cubic",
    title="Turning SUSS on for the small flows does not slow the large "
          "CUBIC flow by more than 5% (paper Table 1: no meaningful "
          "large-flow regression)",
    paper="Table 1", harness="table1_stability",
    kind="non_regression", direction="lower", effect="relative",
    threshold=0.05, build_arms=_stability_arms,
    extract=_stability_large_fct))


# ----------------------------------------------------------------------
# Fig. 15 — fairness convergence after a fifth flow joins.

def _fairness_arms(mode: str, base_seed: int) -> Dict[str, List[JobSpec]]:
    n = _mode_count(mode, 3, 5)
    if mode == "quick":
        kwargs = dict(bottleneck_mbps=20.0, join_time=12.0, horizon=30.0)
    else:
        kwargs = dict(bottleneck_mbps=50.0, join_time=16.0, horizon=40.0)
    rtt, buffer_bdp = 0.05, 1.0
    return {
        "baseline": [fairness_job(rtt, buffer_bdp, "cubic",
                                  seed=base_seed + i, **kwargs)
                     for i in range(n)],
        "treatment": [fairness_job(rtt, buffer_bdp, "cubic+suss",
                                   seed=base_seed + i, **kwargs)
                      for i in range(n)],
    }


def _fairness_recovery(value: Mapping[str, Any]) -> float:
    # Never recovering within the horizon counts as the whole post-join
    # window (conservative, same clamp the Fig. 15 benchmark applies).
    recovery = value["recovery_time"]
    if recovery is None:
        return value["horizon"] - value["join_time"]
    return recovery


register_claim(Claim(
    id="fig15-fairness-recovery",
    title="After a fifth flow joins, Jain fairness recovers >= 20% faster "
          "with SUSS on (paper Fig. 15: markedly faster recovery)",
    paper="Fig. 15", harness="fig15_fairness",
    kind="improvement", direction="lower", effect="relative",
    threshold=0.20, build_arms=_fairness_arms,
    extract=_fairness_recovery))

# ----------------------------------------------------------------------
# Topogen scenario classes — SUSS beyond the dumbbell (repro.net.topogen).

def _topo_claim(claim_id: str, title: str, *, scenario: str, kind: str,
                threshold: float, size: int = 2 * MB,
                cross_load: float = 1.0,
                quick_seeds: int = 3, full_seeds: int = 8) -> Claim:
    def build_arms(mode: str, base_seed: int) -> Dict[str, List[JobSpec]]:
        n = _mode_count(mode, quick_seeds, full_seeds)
        flow_size = size if mode == "quick" else 2 * size
        return {
            "baseline": [topo_flow_job(scenario, "cubic", flow_size,
                                       seed=base_seed + i,
                                       cross_load=cross_load)
                         for i in range(n)],
            "treatment": [topo_flow_job(scenario, "cubic+suss", flow_size,
                                        seed=base_seed + i,
                                        cross_load=cross_load)
                          for i in range(n)],
        }

    return register_claim(Claim(
        id=claim_id, title=title, paper="Sec. 7 (beyond the testbed)",
        harness="topo_suite", kind=kind,
        direction="lower", effect="relative", threshold=threshold,
        build_arms=build_arms, extract=lambda value: value["fct"]))


_topo_claim(
    "topo-lfn-fct-improvement",
    "On a long-fat/satellite path (560 ms RTT, 50 Mbps) SUSS improves a "
    "2 MB flow's FCT by >= 15% — the scenario class where compressed "
    "slow start saves the most rounds",
    scenario="lfn-satellite", kind="improvement", threshold=0.15)

_topo_claim(
    "topo-parking-lot-no-harm",
    "On a 3-hop parking lot with per-hop web cross traffic, SUSS does "
    "not regress foreground FCT by more than 10%",
    scenario="parking-lot-3", kind="non_regression", threshold=0.10,
    size=1 * MB)

_topo_claim(
    "topo-multi-bottleneck-no-harm",
    "Crossing two distinct bottlenecks (20 and 15 Mbps hops) with RPC "
    "cross traffic, SUSS does not regress FCT by more than 10%",
    scenario="multi-bottleneck-4", kind="non_regression", threshold=0.10,
    size=1 * MB)

_topo_claim(
    "topo-mesh-no-harm",
    "On an SPF-routed diamond where a second pair shares only the "
    "diamond's edges, SUSS does not regress FCT by more than 10%",
    scenario="mesh-diamond", kind="non_regression", threshold=0.10,
    size=1 * MB)


register_claim(Claim(
    id="fig15-fairness-floor",
    title="The post-join Jain-fairness floor is >= 5% higher with SUSS on "
          "(the join dip is shallower)",
    paper="Fig. 15", harness="fig15_fairness",
    kind="improvement", direction="higher", effect="relative",
    threshold=0.05, build_arms=_fairness_arms,
    extract=lambda value: value["min_fairness_after_join"]))
