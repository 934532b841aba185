"""Statistical estimators for multi-seed replication data.

Everything here is pure standard-library Python and fully deterministic:
the resampling procedures (BCa bootstrap, permutation test) draw from an
injected ``random.Random`` stream, which callers derive from the master
seed via :func:`repro.sim.rng.derive_seed` so that a validation report is
byte-identical across runs.

Contents:

* :func:`bootstrap_ci_bca` — bias-corrected-and-accelerated bootstrap CI
  for an arbitrary statistic over one or more sample arms;
* :func:`mann_whitney_u` — rank-sum test with tie correction and
  continuity correction (normal approximation);
* :func:`permutation_test` — seeded label-permutation test on a
  difference of means;
* :func:`cliffs_delta` — non-parametric effect size in [-1, 1].
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

_NORMAL = statistics.NormalDist()


def normal_ppf(p: float) -> float:
    """Inverse standard-normal CDF (delegates to ``statistics``)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be strictly inside (0, 1)")
    return _NORMAL.inv_cdf(p)


# ----------------------------------------------------------------------
# BCa bootstrap.

def _percentile_of(sorted_values: Sequence[float], q: float) -> float:
    """Interpolated quantile (``q`` in [0, 1]) over pre-sorted values."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    rank = q * (len(sorted_values) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return sorted_values[low]
    frac = rank - low
    return sorted_values[low] + frac * (sorted_values[high]
                                        - sorted_values[low])


def bootstrap_ci_bca(arms: Sequence[Sequence[float]],
                     stat: Callable[..., float],
                     rng: random.Random, *,
                     n_resamples: int = 1000,
                     confidence: float = 0.95) -> Tuple[float, float]:
    """BCa bootstrap CI for ``stat(*arms)`` over independent sample arms.

    Each arm is resampled with replacement independently; the bias
    correction ``z0`` comes from the bootstrap distribution and the
    acceleration ``a`` from a leave-one-out jackknife across every
    observation of every arm.  Degenerate inputs (no spread anywhere)
    return a point interval, which is the honest answer for fully
    deterministic replications.
    """
    if not arms or any(len(arm) == 0 for arm in arms):
        raise ValueError("every arm needs at least one sample")
    if n_resamples < 10:
        raise ValueError("n_resamples must be at least 10")
    arms = [list(arm) for arm in arms]
    observed = stat(*arms)

    boots: List[float] = []
    for _ in range(n_resamples):
        resampled = [[arm[rng.randrange(len(arm))] for _ in arm]
                     for arm in arms]
        boots.append(stat(*resampled))
    boots.sort()
    if boots[0] == boots[-1]:
        return (observed, observed)

    below = sum(1 for b in boots if b < observed)
    frac = min(max(below / n_resamples, 1.0 / (n_resamples + 1)),
               1.0 - 1.0 / (n_resamples + 1))
    z0 = normal_ppf(frac)

    jackknife: List[float] = []
    for index, arm in enumerate(arms):
        if len(arm) < 2:
            continue  # removing the only observation would empty the arm
        for drop in range(len(arm)):
            reduced = list(arms)
            reduced[index] = arm[:drop] + arm[drop + 1:]
            jackknife.append(stat(*reduced))
    accel = 0.0
    if len(jackknife) >= 2:
        jk_mean = sum(jackknife) / len(jackknife)
        num = sum((jk_mean - j) ** 3 for j in jackknife)
        den = sum((jk_mean - j) ** 2 for j in jackknife) ** 1.5
        if den > 0.0:
            accel = num / (6.0 * den)

    alpha = 1.0 - confidence
    out = []
    for z_alpha in (normal_ppf(alpha / 2.0), normal_ppf(1.0 - alpha / 2.0)):
        adj = z0 + (z0 + z_alpha) / (1.0 - accel * (z0 + z_alpha))
        out.append(_percentile_of(boots, _NORMAL.cdf(adj)))
    return (min(out), max(out))


# ----------------------------------------------------------------------
# Rank-based comparisons.

def _rank_with_ties(values: Sequence[float]) -> List[float]:
    """Ranks (1-based, ties averaged) of ``values``."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while (j + 1 < len(order)
               and values[order[j + 1]] == values[order[i]]):
            j += 1
        avg = (i + j) / 2.0 + 1.0
        for k in range(i, j + 1):
            ranks[order[k]] = avg
        i = j + 1
    return ranks


@dataclass(frozen=True)
class MannWhitneyResult:
    """U statistic of the first sample, its z-score, and the p-value."""

    u: float
    z: float
    p_value: float


def mann_whitney_u(a: Sequence[float], b: Sequence[float],
                   alternative: str = "two-sided") -> MannWhitneyResult:
    """Mann-Whitney U rank-sum test (normal approximation, tie-corrected).

    ``alternative='less'`` tests whether ``a`` is stochastically smaller
    than ``b``; ``'greater'`` the reverse; ``'two-sided'`` either.  The
    normal approximation is continuity-corrected; for the tiny sample
    sizes the quick validation mode uses it is conservative enough that a
    clean separation of 3-vs-3 arms still clears alpha = 0.05.
    """
    if alternative not in ("two-sided", "less", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples need at least one value")
    combined = list(a) + list(b)
    ranks = _rank_with_ties(combined)
    rank_sum_a = sum(ranks[:n])
    u_a = rank_sum_a - n * (n + 1) / 2.0

    total = n + m
    mean_u = n * m / 2.0
    tie_term = 0.0
    seen = {}
    for value in combined:
        seen[value] = seen.get(value, 0) + 1
    for count in seen.values():
        if count > 1:
            tie_term += count ** 3 - count
    var_u = (n * m / 12.0) * ((total + 1) - tie_term / (total * (total - 1)))
    if var_u <= 0.0:  # every value tied with every other
        return MannWhitneyResult(u=u_a, z=0.0, p_value=1.0)
    sigma = math.sqrt(var_u)

    if alternative == "greater":
        z = (u_a - mean_u - 0.5) / sigma
        p = 1.0 - _NORMAL.cdf(z)
    elif alternative == "less":
        z = (u_a - mean_u + 0.5) / sigma
        p = _NORMAL.cdf(z)
    else:
        z = (u_a - mean_u) / sigma
        shift = (abs(u_a - mean_u) - 0.5) / sigma
        p = 2.0 * (1.0 - _NORMAL.cdf(max(shift, 0.0)))
    return MannWhitneyResult(u=u_a, z=z, p_value=min(max(p, 0.0), 1.0))


def permutation_test(a: Sequence[float], b: Sequence[float],
                     rng: random.Random, *,
                     n_resamples: int = 2000,
                     alternative: str = "two-sided") -> float:
    """Seeded permutation test on the difference of means ``mean(a)-mean(b)``.

    Labels are reshuffled ``n_resamples`` times; the p-value uses the
    add-one estimator so it can never be exactly zero.
    """
    if alternative not in ("two-sided", "less", "greater"):
        raise ValueError(f"unknown alternative {alternative!r}")
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples need at least one value")
    if n_resamples < 10:
        raise ValueError("n_resamples must be at least 10")
    combined = list(a) + list(b)
    observed = sum(a) / n - sum(b) / m
    hits = 0
    for _ in range(n_resamples):
        rng.shuffle(combined)
        delta = (sum(combined[:n]) / n) - (sum(combined[n:]) / m)
        if alternative == "greater":
            hits += delta >= observed
        elif alternative == "less":
            hits += delta <= observed
        else:
            hits += abs(delta) >= abs(observed)
    return (hits + 1) / (n_resamples + 1)


def cliffs_delta(a: Sequence[float], b: Sequence[float]) -> float:
    """Cliff's delta effect size: P(a > b) - P(a < b), in [-1, 1]."""
    n, m = len(a), len(b)
    if n == 0 or m == 0:
        raise ValueError("both samples need at least one value")
    greater = sum(1 for x in a for y in b if x > y)
    less = sum(1 for x in a for y in b if x < y)
    return (greater - less) / (n * m)
