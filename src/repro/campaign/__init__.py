"""``repro.campaign`` — parallel, cached, fault-tolerant experiment campaigns.

The paper's evaluation is thousands of independent seeded downloads; this
package turns them into a schedulable job system:

* :mod:`~repro.campaign.spec` — declarative :class:`JobSpec` with a
  stable content hash;
* :mod:`~repro.campaign.jobs` — registered job kinds and the worker
  entry point (timeouts, fault injection);
* :mod:`~repro.campaign.scheduler` — process-pool fan-out with bounded
  retries, crash recovery, and deterministic result ordering;
* :mod:`~repro.campaign.store` — content-addressed on-disk result cache
  keyed by job hash + code fingerprint (also the resume mechanism).

A run has one observer, :class:`repro.obs.runtime.RunTelemetry`, passed
as ``run_campaign(..., telemetry=)``: the scheduler reports each attempt
outcome to it once, and the stderr narration, done/failed/cached counts,
ETA, ``--stats-json``, ``status.json``, OpenMetrics and the run ledger
are all reads of it (DESIGN.md §11).
"""

from repro.campaign.jobs import JOB_KINDS, execute_job, register
from repro.campaign.scheduler import (
    CampaignResult,
    collect_values,
    run_campaign,
)
from repro.campaign.spec import (
    JobSpec,
    canonical_json,
    fairness_job,
    flowsim_sweep_job,
    single_flow_job,
    stability_job,
)
from repro.campaign.store import ResultStore, code_fingerprint

__all__ = [
    "JOB_KINDS",
    "CampaignResult",
    "JobSpec",
    "ResultStore",
    "canonical_json",
    "code_fingerprint",
    "collect_values",
    "execute_job",
    "fairness_job",
    "flowsim_sweep_job",
    "register",
    "run_campaign",
    "single_flow_job",
    "stability_job",
]
