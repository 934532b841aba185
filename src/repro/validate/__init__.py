"""``repro.validate`` — statistical paper-fidelity and regression gate.

The subsystem answers one question with evidence: *does this tree still
reproduce the paper's claims?*  It has four pieces:

* :mod:`~repro.validate.stats` — pure-stdlib estimators (t and BCa
  bootstrap CIs, Mann-Whitney U, permutation test, Cliff's delta), all
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

from repro.validate.baseline import (
    BaselineStore,
    detect_drift,
    resolve_fingerprint,
)
from repro.validate.claims import (
    CLAIMS,
    MODES,
    Claim,
    get_claim,
    iter_claims,
    register_claim,
)
from repro.validate.driver import fold_claim, plan_jobs, run_validation
from repro.validate.report import (
    FAIL,
    INCONCLUSIVE,
    PASS,
    ClaimVerdict,
    ValidationReport,
    load_report,
    report_json,
)

__all__ = [
    "BaselineStore",
    "CLAIMS",
    "Claim",
    "ClaimVerdict",
    "FAIL",
    "INCONCLUSIVE",
    "MODES",
    "PASS",
    "ValidationReport",
    "detect_drift",
    "fold_claim",
    "get_claim",
    "iter_claims",
    "load_report",
    "plan_jobs",
    "register_claim",
    "report_json",
    "resolve_fingerprint",
    "run_validation",
]
