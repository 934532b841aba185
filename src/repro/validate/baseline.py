"""Recorded baselines: metric distributions and a perf-regression gate.

Two kinds of baseline live here:

* **Claim baselines** — ``repro validate --record-baseline`` writes each
  claim's per-seed treatment samples to a content-addressed store
  (``<root>/<code fingerprint[:16]>/<claim id>.json``).  A later
  ``repro validate --against <root>`` re-runs the claims and flags any
  claim whose fresh treatment distribution has *drifted* from the
  recorded one — a two-sided seeded permutation test plus a Cliff's
  delta floor, so a real behaviour change fails loudly while resampling
  noise does not.  Drift flips the claim's verdict to FAIL.
* **Perf baselines** — ``benchmarks/baseline.json`` pins wall-clock
  numbers for the ``bench_core_speed`` micro-benchmarks.
  :func:`measure_core_speed` re-times the same three workloads inline
  and :func:`check_perf` compares against the recorded value with a
  per-metric tolerance (scalable via ``--perf-scale`` for noisy CI
  runners).  Perf timing is wall-clock and therefore exempt from the
  byte-identical-report guarantee; it lives in its own report section.
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.rng import derive_seed
from repro.validate.report import FAIL, PASS, PerfVerdict
from repro.validate.stats import cliffs_delta, permutation_test

#: Cliff's delta magnitude below which a "significant" drift is ignored
#: (protects near-degenerate distributions where one changed seed makes
#: the permutation test arbitrarily small).
DRIFT_DELTA_FLOOR = 0.5


class BaselineStore:
    """Per-claim treatment-sample distributions under a code fingerprint."""

    def __init__(self, root: os.PathLike, fingerprint: str):
        self.root = Path(root)
        self.fingerprint = fingerprint

    @property
    def generation_dir(self) -> Path:
        return self.root / self.fingerprint[:16]

    def path_for(self, claim_id: str) -> Path:
        return self.generation_dir / f"{claim_id}.json"

    def record(self, claim_id: str, *, mode: str, base_seed: int,
               samples: Sequence[float]) -> Path:
        path = self.path_for(claim_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "claim_id": claim_id,
            "fingerprint": self.fingerprint,
            "mode": mode,
            "base_seed": base_seed,
            "samples": [float(s) for s in samples],
        }
        tmp = path.parent / f".{claim_id}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
        os.replace(tmp, path)
        return path

    def load(self, claim_id: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self.path_for(claim_id), "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "samples" not in record:
            return None
        return record

    def claim_ids(self) -> List[str]:
        if not self.generation_dir.is_dir():
            return []
        return sorted(p.stem for p in self.generation_dir.glob("*.json"))


def resolve_fingerprint(root: os.PathLike,
                        requested: Optional[str] = None) -> str:
    """Pick the baseline generation to compare against.

    With ``requested`` (a fingerprint or unique prefix), match it; with
    exactly one generation on disk, use it; otherwise the caller must
    disambiguate — no mtime heuristics, resolution is deterministic.
    """
    rootp = Path(root)
    generations = sorted(p.name for p in rootp.iterdir()
                         if p.is_dir()) if rootp.is_dir() else []
    if not generations:
        raise FileNotFoundError(f"no recorded baselines under {rootp}")
    if requested:
        matches = [g for g in generations if g.startswith(requested[:16])]
        if not matches:
            raise KeyError(f"no baseline generation matches "
                           f"{requested!r}; have: {', '.join(generations)}")
        if len(matches) > 1:
            raise KeyError(f"fingerprint prefix {requested!r} is ambiguous: "
                           f"{', '.join(matches)}")
        return matches[0]
    if len(generations) > 1:
        raise KeyError(
            f"multiple baseline generations under {rootp} "
            f"({', '.join(generations)}); pass --baseline-fingerprint")
    return generations[0]


def detect_drift(claim_id: str, recorded: Sequence[float],
                 fresh: Sequence[float], *, base_seed: int = 0,
                 alpha: float = 0.01,
                 n_resamples: int = 2000) -> Dict[str, Any]:
    """Compare a fresh treatment distribution against the recorded one.

    Drift requires both statistical evidence (two-sided permutation test
    at ``alpha``) and a material effect (|Cliff's delta| >=
    :data:`DRIFT_DELTA_FLOOR`).  Identical distributions short-circuit
    to "stable" without resampling.
    """
    result: Dict[str, Any] = {
        "claim_id": claim_id,
        "n_recorded": len(recorded),
        "n_fresh": len(fresh),
        "alpha": alpha,
    }
    if sorted(recorded) == sorted(fresh):
        result.update(drifted=False, p_value=1.0, cliffs_delta=0.0)
        return result
    rng = random.Random(derive_seed(base_seed, f"validate.drift:{claim_id}"))
    p = permutation_test(list(fresh), list(recorded), rng,
                         n_resamples=n_resamples, alternative="two-sided")
    delta = cliffs_delta(list(fresh), list(recorded))
    result.update(drifted=bool(p <= alpha and abs(delta)
                               >= DRIFT_DELTA_FLOOR),
                  p_value=p, cliffs_delta=delta)
    return result


# ----------------------------------------------------------------------
# Perf gate: the core-speed workloads, defined once here and imported by
# benchmarks/bench_core_speed.py.

_MSS = 1448


def bench_engine_events() -> int:
    """Chained-tick workload: pure schedule-and-fire cost (10 000 events)."""
    from repro.sim import Simulator

    sim = Simulator()
    count = [0]

    def tick() -> None:
        count[0] += 1
        if count[0] < 10_000:
            sim.schedule(0.001, tick)

    sim.schedule(0.0, tick)
    sim.run()
    assert count[0] == 10_000
    return count[0]


def bench_download(cc: str) -> int:
    """A 2 MB download on a 100 Mbit/s, 100 ms path; data packets sent."""
    from repro.net import bdp_bytes, build_path
    from repro.sim import Simulator
    from repro.tcp import open_transfer

    sim = Simulator()
    rate, rtt = 12_500_000, 0.1
    net = build_path(sim, rate, rtt, bdp_bytes(rate, rtt))
    transfer = open_transfer(sim, net.servers[0], net.clients[0],
                             flow_id=1, size_bytes=1400 * _MSS, cc=cc)
    sim.run(until=300.0)
    assert transfer.completed
    return transfer.sender.data_packets_sent


def bench_flowsim_fleet(flows: int = 100_000):
    """The ±SUSS sweep over ``flows`` campus flows; its ``SweepResult``."""
    from repro.flowsim.driver import SweepConfig, run_sweep
    from repro.flowsim.model import PathParams

    config = SweepConfig(path=PathParams(rtt=0.04, btl_bw=2_500_000),
                         flows=flows, size_dist="campus", seed=1)
    result = run_sweep(config)
    assert result.fleets["csa00"].n_flows == flows
    return result


_PERF_WORKLOADS = {
    "engine_event_throughput": bench_engine_events,
    "transfer_packet_throughput": lambda: bench_download("cubic"),
    "suss_transfer_throughput": lambda: bench_download("cubic+suss"),
    # 2x100k modelled flows; the baseline entry keeps the analytical
    # tier honest about its >= 1e5 flows/sec promise.
    "flowsim_fleet_throughput": bench_flowsim_fleet,
}


def measure_core_speed(repeats: int = 3) -> Dict[str, float]:
    """Best-of-``repeats`` wall-clock seconds per ``bench_core_speed`` metric.

    Minimum-of-N is the standard noise reducer for micro-benchmarks: the
    fastest run is the one least disturbed by the machine.
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    out: Dict[str, float] = {}
    for name, workload in _PERF_WORKLOADS.items():
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            workload()
            best = min(best, time.perf_counter() - start)
        out[name] = best
    return out


def load_perf_baseline(path: os.PathLike) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    if baseline.get("bench") != "bench_core_speed":
        raise ValueError(f"{path}: not a bench_core_speed baseline")
    return baseline


def check_perf(baseline: Dict[str, Any], measured: Dict[str, float], *,
               scale: float = 1.0) -> List[PerfVerdict]:
    """One verdict per baseline metric; worse than tolerance => FAIL.

    ``scale`` multiplies each tolerance (CI runners are noisier than the
    machine that recorded the baseline).  Only regressions fail — a
    better run is a reason to re-record, not an error.  Every entry is a
    duration in seconds (lower is better).
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    verdicts: List[PerfVerdict] = []
    for name in sorted(baseline["metrics"]):
        entry = baseline["metrics"][name]
        value, tolerance = entry["value"], entry["tolerance"] * scale
        if name not in measured:
            verdicts.append(PerfVerdict(
                metric=name, baseline=value, measured=float("nan"),
                tolerance=tolerance, verdict=FAIL,
                reason="metric missing from measurement"))
            continue
        got = measured[name]
        limit = value * (1.0 + tolerance)
        if got <= limit:
            verdicts.append(PerfVerdict(
                metric=name, baseline=value, measured=got,
                tolerance=tolerance, verdict=PASS,
                reason=f"within {tolerance:.0%} of baseline"))
        else:
            verdicts.append(PerfVerdict(
                metric=name, baseline=value, measured=got,
                tolerance=tolerance, verdict=FAIL,
                reason=(f"{got / value - 1.0:+.0%} slower than baseline, "
                        f"limit {limit:.4f} s")))
    return verdicts
