"""Expand claims into campaign jobs; fold results into verdicts.

:func:`run_validation` is the subsystem's engine.  It takes a set of
:class:`~repro.validate.claims.Claim`\\ s, expands each into its
baseline/treatment :class:`~repro.campaign.spec.JobSpec` arms for the
requested mode, dedupes the specs by content hash (several claims share
jobs — e.g. both Table-1 claims read the same stability runs), executes
them as one :func:`~repro.campaign.run_campaign` (so the result cache,
parallel fan-out, retries, and resume all come for free), and folds the
per-seed metric samples into one :class:`~repro.validate.report.ClaimVerdict`
per claim.

Verdict policy
--------------

``improvement`` claims (the paper says SUSS makes metric X better by at
least T):

* **PASS** — the point improvement clears T *and* a one-sided
  Mann-Whitney test says the treatment arm is better at ``alpha``;
* **FAIL** — the whole bootstrap CI sits below T: the claimed effect is
  confidently absent (this is what an injected regression produces —
  identical arms give a degenerate CI at 0);
* **INCONCLUSIVE** — anything in between (e.g. right effect size but
  too few seeds for significance).

``non_regression`` claims (the paper says SUSS does not make metric X
worse by more than T):

* **PASS** — the point effect is no worse than ``-T``;
* **FAIL** — it is worse than ``-T`` *and* the one-sided test confirms
  the regression at ``alpha``;
* **INCONCLUSIVE** — worse than ``-T`` but not statistically confirmed.

All randomness (bootstrap resampling) is drawn from
``derive_seed(base_seed, "validate.boot:<claim id>")`` streams, so a
report is byte-identical across runs and across ``--jobs`` levels.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Union

from repro.campaign import (
    JobSpec,
    ResultStore,
    code_fingerprint,
    run_campaign,
)
from repro.obs.runtime import RunTelemetry
from repro.sim.rng import derive_seed
from repro.validate.claims import Claim, get_claim, iter_claims
from repro.validate.report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    ClaimVerdict,
    ValidationReport,
)
from repro.validate.stats import bootstrap_ci_bca, cliffs_delta, mann_whitney_u


def effect_statistic(claim: Claim):
    """The claim's improvement statistic over (baseline, treatment) arms.

    Positive always means "treatment better", whatever the metric's
    direction; ``relative`` effects are normalised by the baseline mean.
    """
    def stat(baseline: Sequence[float], treatment: Sequence[float]) -> float:
        mb = sum(baseline) / len(baseline)
        mt = sum(treatment) / len(treatment)
        gain = (mb - mt) if claim.direction == "lower" else (mt - mb)
        if claim.effect == "absolute":
            return gain
        return gain / mb if mb != 0.0 else 0.0
    return stat


def _decide(claim: Claim, improvement: float, ci_low: float, ci_high: float,
            p_better: float, p_worse: float) -> tuple:
    """Apply the verdict policy; returns ``(verdict, reason)``."""
    t = claim.threshold
    if claim.kind == "improvement":
        if improvement >= t and p_better <= claim.alpha:
            return PASS, (f"improvement {improvement:+.4g} clears the "
                          f"{t:+.4g} threshold and is significant "
                          f"(p={p_better:.4f} <= alpha={claim.alpha})")
        if ci_high < t:
            return FAIL, (f"the whole CI [{ci_low:+.4g}, {ci_high:+.4g}] "
                          f"sits below the {t:+.4g} threshold: the claimed "
                          f"effect is confidently absent")
        if improvement >= t:
            return INCONCLUSIVE, (
                f"improvement {improvement:+.4g} clears the {t:+.4g} "
                f"threshold but is not significant (p={p_better:.4f} > "
                f"alpha={claim.alpha}); more seeds needed")
        return INCONCLUSIVE, (
            f"improvement {improvement:+.4g} misses the {t:+.4g} threshold "
            f"but the CI reaches {ci_high:+.4g}; more seeds needed")
    # non_regression
    if improvement >= -t:
        return PASS, (f"effect {improvement:+.4g} is within the tolerated "
                      f"regression of {-t:+.4g}")
    if p_worse <= claim.alpha:
        return FAIL, (f"regression {improvement:+.4g} exceeds the "
                      f"{-t:+.4g} tolerance and is significant "
                      f"(p={p_worse:.4f} <= alpha={claim.alpha})")
    return INCONCLUSIVE, (
        f"regression {improvement:+.4g} exceeds the {-t:+.4g} tolerance "
        f"but is not significant (p={p_worse:.4f}); more seeds needed")


def fold_claim(claim: Claim, baseline: Sequence[float],
               treatment: Sequence[float], *, base_seed: int = 0,
               n_resamples: int = 1000,
               confidence: float = 0.95) -> ClaimVerdict:
    """Fold one claim's per-seed samples into a :class:`ClaimVerdict`."""
    if not baseline or not treatment:
        raise ValueError(f"claim {claim.id}: both arms need samples")
    stat = effect_statistic(claim)
    improvement = stat(baseline, treatment)
    rng = random.Random(derive_seed(base_seed, f"validate.boot:{claim.id}"))
    ci_low, ci_high = bootstrap_ci_bca(
        [baseline, treatment], stat, rng,
        n_resamples=n_resamples, confidence=confidence)
    better_side = "less" if claim.direction == "lower" else "greater"
    worse_side = "greater" if claim.direction == "lower" else "less"
    p_better = mann_whitney_u(treatment, baseline, better_side).p_value
    p_worse = mann_whitney_u(treatment, baseline, worse_side).p_value
    delta = cliffs_delta(treatment, baseline)
    verdict, reason = _decide(claim, improvement, ci_low, ci_high,
                              p_better, p_worse)
    return ClaimVerdict(
        claim_id=claim.id, title=claim.title, paper=claim.paper,
        kind=claim.kind, effect=claim.effect, direction=claim.direction,
        threshold=claim.threshold, verdict=verdict,
        improvement=improvement, ci_low=ci_low, ci_high=ci_high,
        confidence=confidence, p_better=p_better, p_worse=p_worse,
        cliffs_delta=delta, n_baseline=len(baseline),
        n_treatment=len(treatment),
        baseline_mean=sum(baseline) / len(baseline),
        treatment_mean=sum(treatment) / len(treatment),
        reason=reason,
        baseline_samples=tuple(baseline),
        treatment_samples=tuple(treatment))


def plan_jobs(claims: Sequence[Claim], mode: str, base_seed: int):
    """Expand claims into arms and a deduped, ordered spec list.

    Returns ``(plan, unique_specs)`` where ``plan`` is a list of
    ``(claim, arms)`` pairs and ``unique_specs`` keeps first-seen order
    (deterministic: claims iterate in id order).
    """
    plan = []
    unique: Dict[str, JobSpec] = {}
    for claim in claims:
        arms = claim.build_arms(mode, base_seed)
        for arm in ("baseline", "treatment"):
            if arm not in arms or not arms[arm]:
                raise ValueError(f"claim {claim.id}: build_arms must "
                                 f"return a non-empty {arm!r} arm")
        plan.append((claim, arms))
        for arm_specs in arms.values():
            for spec in arm_specs:
                unique.setdefault(spec.job_hash, spec)
    return plan, list(unique.values())


def run_validation(claim_ids: Optional[Sequence[Union[str, Claim]]] = None, *,
                   mode: str = "quick", base_seed: int = 0,
                   store: Optional[ResultStore] = None, jobs: int = 1,
                   timeout: Optional[float] = None, retries: int = 1,
                   n_resamples: int = 1000, confidence: float = 0.95,
                   fingerprint: Optional[str] = None,
                   telemetry: Optional[RunTelemetry] = None
                   ) -> ValidationReport:
    """Validate ``claim_ids`` (default: every registered claim).

    Entries may be registered claim ids or :class:`Claim` instances
    (tests drive the driver with synthetic claims that never enter the
    registry).  Jobs shared between claims run once; a warm
    :class:`~repro.campaign.store.ResultStore` turns the whole run into
    pure cache hits with an identical report.
    """
    if claim_ids is None:
        claims = iter_claims()
    else:
        claims = [c if isinstance(c, Claim) else get_claim(c)
                  for c in claim_ids]
    plan, specs = plan_jobs(claims, mode, base_seed)
    results = run_campaign(specs, jobs=jobs, store=store, timeout=timeout,
                           retries=retries, telemetry=telemetry)
    values: Dict[str, dict] = {}
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"validation job failed after {result.attempts} attempt(s): "
                f"{result.spec.label or result.spec.kind}: {result.error}")
        values[result.spec.job_hash] = result.value

    verdicts: List[ClaimVerdict] = []
    for claim, arms in plan:
        baseline = [claim.extract(values[s.job_hash])
                    for s in arms["baseline"]]
        treatment = [claim.extract(values[s.job_hash])
                     for s in arms["treatment"]]
        verdicts.append(fold_claim(claim, baseline, treatment,
                                   base_seed=base_seed,
                                   n_resamples=n_resamples,
                                   confidence=confidence))
    return ValidationReport(
        mode=mode, base_seed=base_seed,
        code_fingerprint=fingerprint or code_fingerprint(),
        verdicts=verdicts)
