"""``repro.validate`` — statistical paper-fidelity and regression gate.

The subsystem answers one question with evidence: *does this tree still
reproduce the paper's claims?*  It has four pieces:

* :mod:`~repro.validate.stats` — pure-stdlib estimators (BCa bootstrap
  CIs, Mann-Whitney U, permutation test, Cliff's delta), all
  deterministic via seeded streams;
* :mod:`~repro.validate.claims` — the declarative registry binding each
  paper assertion to an experiment harness, seed counts, and a
  calibrated tolerance;
* :mod:`~repro.validate.driver` — expands claims into cached
  :mod:`repro.campaign` jobs and folds the multi-seed results into
  PASS / FAIL / INCONCLUSIVE verdicts;
* :mod:`~repro.validate.baseline` — recorded metric distributions for
  drift detection across code versions.

No module here reads the wall clock (DET001 applies): reports are
byte-identical cold, warm and parallel, and how fast the code runs is
``benchmarks/perf``'s record, not a verdict.

Entry point: ``repro validate`` (see :mod:`repro.cli`), or
:func:`run_validation` directly.
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "BaselineStore": "baseline",
    "CLAIMS": "claims",
    "Claim": "claims",
    "ClaimVerdict": "report",
    "FAIL": "report",
    "INCONCLUSIVE": "report",
    "MODES": "claims",
    "PASS": "report",
    "ValidationReport": "report",
    "detect_drift": "baseline",
    "fold_claim": "driver",
    "get_claim": "claims",
    "iter_claims": "claims",
    "load_report": "report",
    "plan_jobs": "driver",
    "register_claim": "claims",
    "report_json": "report",
    "resolve_fingerprint": "baseline",
    "run_validation": "driver",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
