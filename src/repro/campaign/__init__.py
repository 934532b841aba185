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
outcome to it once, and the stderr narration (done/failed/cached counts,
ETA), ``--stats-json`` and the run ledger are all reads of it
(DESIGN.md §11).
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "JOB_KINDS": "jobs",
    "CampaignResult": "scheduler",
    "JobSpec": "spec",
    "ResultStore": "store",
    "canonical_json": "spec",
    "code_fingerprint": "store",
    "collect_values": "scheduler",
    "execute_job": "jobs",
    "fairness_job": "spec",
    "flowsim_sweep_job": "spec",
    "register": "jobs",
    "run_campaign": "scheduler",
    "single_flow_job": "spec",
    "stability_job": "spec",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
