"""Vectorised fleet driver: model millions of flows in closed form.

The driver is where the analytical tier earns its keep: a
:class:`~repro.flowsim.model.FlowModel` is a pure function of
``(segment count, path)``, so a fleet of a million flows drawn from a
flow-size distribution collapses to one closed-form evaluation per
*distinct* segment count plus a table lookup per flow.  Internet
mixes are heavy-tailed but quantised by the MSS — a 100 MB ceiling is
only ~69k distinct segment counts — so the sweep the acceptance
criteria time (10^6 flows, both schemes) does a few tens of thousands
of model evaluations, not two million.

"Vectorised" without numpy (the package is stdlib-only) means that no
statement of this module runs once per flow: the fleet is a handful of
columns (sizes, first sizes per segment count, FCTs) and every per-flow
step is one ``map`` / ``sum`` / ``reduce`` / ``Counter`` over a column,
its loop inside the interpreter's C code.  A column of values that
differ per flow (the sizes, the arrivals) is an ``array``; one whose
entries point into a small shared table (first sizes, FCTs) stays a
``list``.  A sweep quantises the fleet once for all its models
(:func:`_quantise`: one ``setdefault`` pass and a histogram of
flows per segment count, which gives the integer totals); a model then
costs its distinct estimates, one lookup per flow for its FCT column
and, on a lossy path only, one more for its float retransmit total
(:func:`_model_fleet`).  DESIGN.md §9, "Fleet sweeps are column
passes", has the accounting.

Flow sizes come from :mod:`repro.workloads.distributions` (the same
mix vocabulary the packet tier's cross-traffic uses) and arrival times
from a Poisson process on the modelled timeline; both draw from
:func:`repro.sim.rng.derive_seed`-derived streams so fleets are
reproducible and independent per purpose.

When an :class:`~repro.obs.tracer.Observability` bundle is supplied the
driver emits one ``flowsim.flow`` record per flow through the ordinary
sink machinery — same tooling, different fidelity tier — in one extra
pass over the same columns (the only per-flow Python loop left, and
only in that mode).  For million-flow sweeps leave ``obs`` unset; the
record stream, not the model, would dominate the run.
"""

from __future__ import annotations

import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, islice, repeat
from operator import add, floordiv, neg
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.units import Bytes, PerSecond, Seconds, Segments
from repro.flowsim.model import FlowModel, PathParams, create_model
from repro.metrics.summary import Summary, summarize
from repro.obs.records import FLOWSIM_FLOW
from repro.obs.runtime import add_flows_modelled
from repro.obs.tracer import Observability
from repro.sim.rng import derive_seed
from repro.workloads.distributions import sample_flow_sizes

#: default offered load for the synthetic arrival process, flows/sec.
DEFAULT_ARRIVAL_RATE: PerSecond = 1000.0


def poisson_arrivals(n: int, rate: PerSecond,
                     rng: random.Random) -> "array[float]":
    """Arrival times of a Poisson process with ``rate`` flows/second: the
    running sum of ``n`` exponential gaps, as one ``array('d')``.  The
    sum starts from ``0.0`` as a ``t += gap`` loop's does, so a first gap
    of ``-0.0`` (a draw of exactly 0) still arrives at ``0.0``."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if rate <= 0.0:
        raise ValueError("rate must be positive")
    gaps = map(rng.expovariate, repeat(rate, n))
    return array("d", islice(accumulate(gaps, initial=0.0), 1, None))


@dataclass
class FleetResult:
    """Aggregate outcome of one modelled fleet (one model, one path)."""

    model: str
    n_flows: int
    # pointers onto the per-count estimate table's floats, 8 B a flow
    fcts: List[Seconds] = field(repr=False)
    # array('q'): every flow's own value, 8 B a flow, shared by the
    # fleets of one sweep
    sizes: "array[Bytes]" = field(repr=False)
    total_bytes: Bytes = 0
    total_segments: Segments = 0
    expected_retransmits: float = 0.0
    rounds_saved_total: int = 0
    distinct_segment_counts: int = 0

    def fct_summary(self) -> Summary:
        return summarize(self.fcts)

    @property
    def mean_rounds_saved(self) -> float:
        if self.n_flows == 0:
            return 0.0
        return self.rounds_saved_total / self.n_flows


@dataclass(frozen=True)
class _FleetColumns:
    """A fleet quantised for one MSS — what every model of a sweep shares."""

    sizes: "array[Bytes]"
    # per flow, the first size seen with its segment count: a pointer
    # onto one int per distinct count
    first_sizes: List[Bytes]
    # per distinct count, keyed by its first size in first-seen order:
    # the number of flows that quantised to it
    flows_per_count: Dict[Bytes, int]
    total_bytes: Bytes
    total_segments: Segments


def _quantise(sizes: "array[int]", mss: int) -> _FleetColumns:
    """The fleet's sizes, each replaced by the first size seen with its
    segment count ``-(-size // mss)``, as one column.

    One ``setdefault`` per flow keys the counts and leaves them in
    first-seen order; the column it returns points at ~10^4 first sizes
    (not 10^6 fresh ints), and two flows share an entry exactly when
    they share a segment count, which is all a model's estimate
    depends on.  The integer totals come from a histogram of that
    column: a count times its flows, summed per distinct count, which
    is exact in any order.
    """
    first: Dict[int, int] = {}
    first_sizes = list(map(first.setdefault,
                           map(neg, map(floordiv, sizes, repeat(-mss))),
                           sizes))
    flows = Counter(first_sizes)
    return _FleetColumns(
        sizes=sizes, first_sizes=first_sizes, flows_per_count=flows,
        total_bytes=sum(sizes),
        total_segments=sum(d * flows[size] for d, size in first.items()))


def _model_fleet(model: FlowModel, columns: _FleetColumns, path: PathParams,
                 arrivals: Optional[Sequence[float]],
                 obs: Optional[Observability], flow_base: int) -> FleetResult:
    """One model over a quantised fleet: ``estimate`` per distinct count,
    integer totals off the count histogram, and the FCT column and the
    float total as table lookups over the first-size column."""
    estimate = model.estimate
    flows = columns.flows_per_count
    estimates = {size: estimate(size, path) for size in flows}
    first_sizes = columns.first_sizes

    def per_count(field_name: str) -> Dict[int, float]:
        return {s: getattr(est, field_name) for s, est in estimates.items()}

    retransmits = per_count("retransmits")
    if any(retransmits.values()):
        # The per-flow column summed left to right from 0.0, as a ``+=``
        # per flow would.  Not ``sum()``: it is compensated for floats
        # since 3.12, which moves the last digit on lossy paths; nor a
        # histogram, whose products regroup the additions.
        expected_retransmits = reduce(
            add, map(retransmits.__getitem__, first_sizes), 0.0)
    else:
        expected_retransmits = 0.0  # a loss-free path: all zeros

    if obs is not None:
        emit, name = obs.emit, model.name
        times = arrivals if arrivals is not None else repeat(0.0)
        for flow, (t, size, first) in enumerate(
                zip(times, columns.sizes, first_sizes), flow_base):
            est = estimates[first]
            emit(t, FLOWSIM_FLOW, flow=flow, model=name,
                 size=size, fct=est.fct, rounds=est.ss_rounds,
                 rounds_saved=est.rounds_saved, retx=est.retransmits)
    return FleetResult(
        model=model.name, n_flows=len(first_sizes),
        fcts=list(map(per_count("fct").__getitem__, first_sizes)),
        sizes=columns.sizes, total_bytes=columns.total_bytes,
        total_segments=columns.total_segments,
        expected_retransmits=expected_retransmits,
        rounds_saved_total=sum(est.rounds_saved * flows[s]
                               for s, est in estimates.items()),
        distinct_segment_counts=len(estimates))


def estimate_fleet(model: FlowModel, sizes: Sequence[int], path: PathParams,
                   *, arrivals: Optional[Sequence[float]] = None,
                   obs: Optional[Observability] = None,
                   flow_base: int = 1) -> FleetResult:
    """Model every flow in ``sizes``, memoising by segment count.

    Two sizes that quantise to the same number of MSS-sized segments
    have identical closed-form outcomes, so the model runs once per
    distinct segment count.  ``arrivals`` (parallel to ``sizes``) only
    matters for the timeline stamped onto emitted ``flowsim.flow``
    records; the analytical tier models flows independently, so
    arrivals never change an FCT.
    """
    if arrivals is not None and len(arrivals) != len(sizes):
        raise ValueError("arrivals must parallel sizes")
    return _model_fleet(model, _quantise(_size_column(sizes), path.mss),
                        path, arrivals, obs, flow_base)


def _size_column(sizes: Sequence[int]) -> "array[int]":
    """``sizes`` copied into the ``array('q')`` a sampled fleet arrives
    in.  A size the column cannot hold — not an integer, or beyond
    ±2^63 bytes — is a ``ValueError`` that names the first one, found by
    a ``min()`` pass that runs only after the copy has failed.  (Sizes
    of zero and below fit; ``model.estimate`` refuses them.)"""
    try:
        return array("q", sizes)
    except (TypeError, OverflowError):
        bad = min(sizes, key=_fits_size_column)
        raise ValueError(f"flow size {bad!r} is not an integer that "
                         f"fits 64 bits") from None


def _fits_size_column(size: object) -> bool:
    try:
        array("q", (size,))
    except (TypeError, OverflowError):
        return False
    return True


@dataclass(frozen=True)
class SweepConfig:
    """A reproducible fleet sweep: one path, one mix, N flows per model."""

    path: PathParams
    flows: int = 100_000
    size_dist: str = "campus"
    arrival_rate: PerSecond = DEFAULT_ARRIVAL_RATE
    seed: int = 1
    models: Tuple[str, ...] = ("csa00", "csa00+suss")

    def __post_init__(self) -> None:
        if self.flows <= 0:
            raise ValueError("flows must be positive")
        if not self.models:
            raise ValueError("need at least one model")


@dataclass(frozen=True)
class SweepResult:
    """Per-model fleet results plus the headline SUSS comparison."""

    config: SweepConfig
    fleets: Dict[str, FleetResult]

    def improvement(self, baseline: str = "csa00",
                    treatment: str = "csa00+suss",
                    stat: str = "mean") -> float:
        """Relative FCT improvement of ``treatment`` over ``baseline``
        (positive means the treatment is faster — the direction of the
        paper's Fig. 11/12).

        The headline statistic is the mean: on internet mixes the
        *median* flow fits in two slow-start rounds (IW covers it), a
        regime SUSS cannot compress, so the median is often identical
        while the mean captures the tail SUSS accelerates.
        """
        return _relative_improvement(
            getattr(self.fleets[baseline].fct_summary(), stat),
            getattr(self.fleets[treatment].fct_summary(), stat))


def _relative_improvement(base: float, treat: float) -> float:
    return (base - treat) / base if base else 0.0


def fleet_to_value(fleet: FleetResult) -> Dict[str, object]:
    """JSON-serialisable digest of one fleet (campaign result unit)."""
    return _fleet_value(fleet, fleet.fct_summary())


def _fleet_value(fleet: FleetResult, s: Summary) -> Dict[str, object]:
    return {
        "n": fleet.n_flows,
        "fct_mean": s.mean,
        "fct_std": s.std,
        "fct_median": s.median,
        "fct_p95": s.p95,
        "fct_min": s.minimum,
        "fct_max": s.maximum,
        "total_bytes": fleet.total_bytes,
        "total_segments": fleet.total_segments,
        "expected_retransmits": fleet.expected_retransmits,
        "rounds_saved_mean": fleet.mean_rounds_saved,
        "distinct_segment_counts": fleet.distinct_segment_counts,
    }


def sweep_to_value(result: SweepResult) -> Dict[str, object]:
    """JSON-serialisable digest of a whole sweep: each fleet summarised
    once, the headline improvement read off the same summaries."""
    cfg = result.config
    summaries = {name: fleet.fct_summary()
                 for name, fleet in result.fleets.items()}
    value: Dict[str, object] = {
        "flows": cfg.flows,
        "size_dist": cfg.size_dist,
        "seed": cfg.seed,
        "arrival_rate": cfg.arrival_rate,
        "models": {name: _fleet_value(fleet, summaries[name])
                   for name, fleet in result.fleets.items()},
    }
    if "csa00" in summaries and "csa00+suss" in summaries:
        value["improvement"] = _relative_improvement(
            summaries["csa00"].mean, summaries["csa00+suss"].mean)
    return value


def run_sweep(config: SweepConfig,
              obs: Optional[Observability] = None) -> SweepResult:
    """Run the configured fleet through every model on identical draws.

    All models see the *same* sizes and arrivals (streams derived from
    the sweep seed by purpose), so a ±SUSS comparison is paired at the
    flow level, not merely distribution-level.
    """
    size_rng = random.Random(derive_seed(config.seed, "flowsim.sizes"))
    arr_rng = random.Random(derive_seed(config.seed, "flowsim.arrivals"))
    sizes = sample_flow_sizes(config.size_dist, config.flows, size_rng)
    arrivals = (poisson_arrivals(config.flows, config.arrival_rate, arr_rng)
                if obs is not None else None)
    columns = _quantise(sizes, config.path.mss)
    fleets = {name: _model_fleet(create_model(name), columns, config.path,
                                 arrivals, obs, flow_base=1)
              for name in config.models}
    # One process-counter add per sweep (not per flow): run telemetry
    # reports flows/sec without touching the memoised estimate path.
    add_flows_modelled(config.flows * len(config.models))
    return SweepResult(config=config, fleets=fleets)
