"""Differential oracle: the per-flow Python loops a fleet sweep shipped with.

``repro.flowsim`` used to do three things once per flow (or once per
estimate) in interpreted loops: ``EmpiricalCdf.sample_sizes`` built a
float list with ``sample_many`` and truncated it in a second pass,
``estimate_fleet`` walked the fleet with a ``dict.get`` / ``+=`` body,
and ``Csa00Model._ladder`` re-walked the slow-start rounds from ``iw``
for every segment count.  The shipped code does the same arithmetic as
whole-column passes and walks the ladder once per path.  The old bodies
live on here, verbatim, as the reference the shipped code is compared
against with ``==`` — whole ``FlowEstimate``s, every ``FleetResult``
field, the ``flowsim.flow`` record stream and the rng's position
(``tests/test_flowsim_differential.py``).  Nothing under ``src/`` may
import this.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.flowsim.csa00 import SATURATION_BDP_FRACTION, Csa00Model
from repro.flowsim.driver import FleetResult, SweepConfig, poisson_arrivals
from repro.flowsim.model import (
    FlowEstimate,
    FlowModel,
    PathParams,
    rounds_for_data,
)
from repro.flowsim.suss_term import SussCsa00Model
from repro.obs.records import FLOWSIM_FLOW
from repro.obs.tracer import Observability
from repro.sim.rng import derive_seed
from repro.workloads.distributions import CAMPUS_FLOW_CDF, EmpiricalCdf


# ----------------------------------------------------------------------
# EmpiricalCdf.sample_sizes: a float list, then a truncating pass
# ----------------------------------------------------------------------
def reference_sample_sizes(cdf: EmpiricalCdf, n: int,
                           rng: random.Random) -> List[int]:
    return [max(int(v), 1) for v in cdf.sample_many(n, rng)]


# ----------------------------------------------------------------------
# estimate_fleet: one dict probe and four ``+=`` per flow
# ----------------------------------------------------------------------
def reference_estimate_fleet(model: FlowModel, sizes: Sequence[int],
                             path: PathParams, *,
                             arrivals: Optional[Sequence[float]] = None,
                             obs: Optional[Observability] = None,
                             flow_base: int = 1) -> FleetResult:
    if arrivals is not None and len(arrivals) != len(sizes):
        raise ValueError("arrivals must parallel sizes")
    mss = path.mss
    cache: Dict[int, FlowEstimate] = {}
    estimate = model.estimate
    fcts: List[float] = []
    append = fcts.append
    total_bytes = 0
    total_segments = 0
    retx = 0.0
    saved = 0
    emit = obs.emit if obs is not None else None
    for i, size in enumerate(sizes):
        d = -(-size // mss)
        est = cache.get(d)
        if est is None:
            est = estimate(size, path)
            cache[d] = est
        append(est.fct)
        total_bytes += size
        total_segments += d
        retx += est.retransmits
        saved += est.rounds_saved
        if emit is not None:
            t = arrivals[i] if arrivals is not None else 0.0
            emit(t, FLOWSIM_FLOW, flow=flow_base + i, model=model.name,
                 size=size, fct=est.fct, rounds=est.ss_rounds,
                 rounds_saved=est.rounds_saved, retx=est.retransmits)
    return FleetResult(model=model.name, n_flows=len(sizes), fcts=fcts,
                       sizes=list(sizes), total_bytes=total_bytes,
                       total_segments=total_segments,
                       expected_retransmits=retx, rounds_saved_total=saved,
                       distinct_segment_counts=len(cache))


# ----------------------------------------------------------------------
# Csa00Model._ladder: the rounds re-walked from ``iw`` on every call
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReferenceLadder:
    """Outcome of walking the slow-start round ladder."""

    rounds: int               # rounds spent in slow start
    sent: float               # segments sent during those rounds
    cwnd: float               # window when the phase ended (segments)
    final_window: float       # window sent in the final round
    prev_window: float        # window of the round before the final one
    sent_before_final: float  # cumulative segments before the final round
    saturated: bool           # ended because the pipe filled (not data)
    rounds_saved: int         # rounds a gamma-only ladder would have added


class _ReferenceLadderWalk:
    """Mixin: the shipped model's hooks and loss machinery under the old
    ``_ladder``.  ``estimate`` is inherited and calls ``self._ladder``."""

    def _ladder(self, segments: float, path: PathParams) -> ReferenceLadder:
        cap = min(path.bdp_segments * SATURATION_BDP_FRACTION,
                  path.rwnd_segments)
        cwnd = float(path.iw_segments)
        prev = cwnd
        final = cwnd
        sent = 0.0
        before_final = 0.0
        rounds = 0
        baseline_cwnd = float(path.iw_segments)
        baseline_rounds = 0
        while sent < segments and cwnd < cap:
            rounds += 1
            prev = final
            final = cwnd
            before_final = sent
            sent += cwnd
            grown = cwnd * self.growth_factor(cwnd, rounds, path)
            cwnd = min(grown, path.rwnd_segments)
            # Track how many rounds a gamma-only ladder needs to reach
            # the same window — the difference is the rounds the growth
            # schedule (e.g. SUSS) compressed away.
            while baseline_cwnd < min(cwnd, cap) - 1e-9:
                baseline_cwnd *= path.gamma
                baseline_rounds += 1
        saturated = sent < segments
        saved = max(baseline_rounds - rounds, 0) if saturated else 0
        if not saturated and rounds > 0:
            # Data ran out: compare against the gamma-only round count
            # for the same amount of data.
            base = rounds_for_data(path.iw_segments, path.gamma, segments)
            saved = max(base - rounds, 0)
        return ReferenceLadder(
            rounds=rounds, sent=min(sent, segments), cwnd=cwnd,
            final_window=final, prev_window=prev,
            sent_before_final=before_final,
            saturated=saturated, rounds_saved=saved)


class ReferenceCsa00Model(_ReferenceLadderWalk, Csa00Model):
    pass


class ReferenceSussCsa00Model(_ReferenceLadderWalk, SussCsa00Model):
    pass


def reference_model(name: str, k_max: Optional[int] = None) -> FlowModel:
    """The oracle twin of ``create_model(name)`` (``k_max`` for SUSS)."""
    if name == "csa00":
        return ReferenceCsa00Model()
    if k_max is None:
        return ReferenceSussCsa00Model()
    return ReferenceSussCsa00Model(k_max=k_max)


# ----------------------------------------------------------------------
# run_sweep: the three bodies above, composed as the sweep composed them
# ----------------------------------------------------------------------
def reference_run_sweep(config: SweepConfig,
                        obs: Optional[Observability] = None
                        ) -> Dict[str, FleetResult]:
    """``run_sweep``'s fleets, by model name, from the per-flow bodies."""
    assert config.size_dist == "campus"
    size_rng = random.Random(derive_seed(config.seed, "flowsim.sizes"))
    arr_rng = random.Random(derive_seed(config.seed, "flowsim.arrivals"))
    sizes = reference_sample_sizes(CAMPUS_FLOW_CDF, config.flows, size_rng)
    arrivals = (poisson_arrivals(config.flows, config.arrival_rate, arr_rng)
                if obs is not None else None)
    return {name: reference_estimate_fleet(reference_model(name), sizes,
                                           config.path, arrivals=arrivals,
                                           obs=obs)
            for name in config.models}
