"""Run-level telemetry: campaign spans, resource accounting, live status.

The per-packet observability stack (records/sinks/metrics, DESIGN.md §7)
answers "what did the simulation do?".  This module answers the same
question one layer up, about the harness that *runs* simulations: which
worker executed which JobSpec, how long each attempt queued vs executed,
what was a cache hit, why a retry fired, and where CPU and memory went.
It is the substrate the distributed-campaign arc (ROADMAP items 4-5)
reports through.

Three pieces, all stdlib-only so any layer may depend on them:

* **process counters** (:func:`add_engine_events`,
  :func:`add_flows_modelled`) — cumulative per-process work counters.
  The engines add one delta per ``run()`` call and the flowsim driver
  one per sweep, so the hot loops stay untouched and the disabled-cost
  budget (≤2% on bench_core_speed) holds.
* **resource sampling** (:func:`sample_resources`,
  :func:`resource_delta`) — CPU via :func:`os.times`, peak RSS via
  :mod:`resource` (guarded import; absent on some platforms), plus the
  process counters, so a worker can report exactly the work a job did.
* :class:`RunTelemetry` — the per-run collector: typed
  :class:`JobSpan` records with retry lineage (emitted through the
  existing :class:`~repro.obs.tracer.Observability` machinery as
  ``campaign.span`` trace records), live aggregates in a
  :class:`~repro.obs.metrics.MetricRegistry` (for OpenMetrics
  exposition), and a throttled atomic ``status.json`` snapshot that
  ``repro top`` renders.

Wall-clock use is deliberate and legal here: ``repro/obs/`` is exempt
from DET001, and nothing this module produces participates in golden
digests or the deterministic run-ledger body (:mod:`repro.obs.ledger`
keeps wall-clock strictly in the ``.run.json`` sidecar).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.metrics import MetricRegistry
from repro.obs.records import CAMPAIGN_SPAN

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

#: schema version of the status snapshot and span dict encodings.
STATUS_SCHEMA_VERSION = 1

#: histogram buckets for queue-wait / exec-time spans (seconds).
SPAN_BUCKETS = (0.001, 0.003, 0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
                30.0, 100.0, 300.0, 1000.0)


# ----------------------------------------------------------------------
# process-wide work counters
# ----------------------------------------------------------------------
class ProcessCounters:
    """Cumulative work counters for this process.

    Producers (the event engine, flowsim driver) add one delta per run,
    not per event, so reading them is always cheap and enabling
    telemetry costs the hot paths nothing.
    """

    __slots__ = ("engine_events", "flows_modelled")

    def __init__(self) -> None:
        self.engine_events = 0
        self.flows_modelled = 0

    def snapshot(self) -> Dict[str, int]:
        return {"engine_events": self.engine_events,
                "flows_modelled": self.flows_modelled}


#: the process-global counter instance all producers feed.
counters = ProcessCounters()


def add_engine_events(n: int) -> None:
    """Record ``n`` engine events processed (one call per ``run()``)."""
    counters.engine_events += n


def add_flows_modelled(n: int) -> None:
    """Record ``n`` analytically modelled flows (one call per sweep)."""
    counters.flows_modelled += n


# ----------------------------------------------------------------------
# resource sampling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ResourceSample:
    """Point-in-time resource reading for this process."""

    cpu_user: float
    cpu_system: float
    max_rss_kb: int
    engine_events: int
    flows_modelled: int


def sample_resources() -> ResourceSample:
    """Sample this process's CPU time, peak RSS, and work counters."""
    times = os.times()
    rss = 0
    if _resource is not None:
        rss = int(_resource.getrusage(_resource.RUSAGE_SELF).ru_maxrss)
    return ResourceSample(cpu_user=times.user, cpu_system=times.system,
                          max_rss_kb=rss,
                          engine_events=counters.engine_events,
                          flows_modelled=counters.flows_modelled)


def resource_delta(before: ResourceSample,
                   after: ResourceSample) -> Dict[str, Any]:
    """JSON envelope of the work done between two samples.

    CPU and the work counters are true deltas; ``max_rss_kb`` is the
    process peak at the *after* sample (ru_maxrss is a high-water mark
    and cannot be differenced meaningfully).
    """
    return {
        "cpu_user": max(after.cpu_user - before.cpu_user, 0.0),
        "cpu_system": max(after.cpu_system - before.cpu_system, 0.0),
        "max_rss_kb": after.max_rss_kb,
        "engine_events": after.engine_events - before.engine_events,
        "flows_modelled": after.flows_modelled - before.flows_modelled,
    }


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class JobSpan:
    """One scheduler-level execution span: a single attempt of a job.

    ``span_id`` is ``<job_hash[:12]>#<attempt>``; ``retry_of`` names the
    span of the previous attempt of the same job, giving each failure a
    causal chain the same way trace records carry (eid, peid).
    """

    span_id: str
    job_hash: str
    kind: str
    label: str
    status: str                      # "ok" | "failed" | "retry"
    cached: bool = False
    attempt: int = 0
    worker: Optional[int] = None
    queue_wait: float = 0.0
    exec_time: float = 0.0
    retry_of: Optional[str] = None
    error: Optional[str] = None
    resources: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Flat JSON form; optional fields are dropped when unset."""
        out: Dict[str, Any] = {
            "span": self.span_id, "hash": self.job_hash,
            "kind": self.kind, "label": self.label,
            "status": self.status, "cached": self.cached,
            "attempt": self.attempt,
            "queue_wait": round(self.queue_wait, 6),
            "exec": round(self.exec_time, 6),
        }
        if self.worker is not None:
            out["worker"] = self.worker
        if self.retry_of is not None:
            out["retry_of"] = self.retry_of
        if self.error is not None:
            out["error"] = self.error
        if self.resources is not None:
            out["resources"] = self.resources
        return out


class RunTelemetry:
    """Span collector + live aggregates for one campaign-shaped run.

    The scheduler calls :meth:`start`, then :meth:`record_span` once per
    attempt outcome (cache hit, success, retryable failure, terminal
    failure), and :meth:`complete` with the spec-ordered results.  Along
    the way this object

    * appends every span to :attr:`spans` and emits it as a
      ``campaign.span`` trace record when an
      :class:`~repro.obs.tracer.Observability` hub is attached,
    * keeps ``run.*`` instruments in :attr:`metrics` current for
      OpenMetrics exposition, and
    * rewrites ``status_path`` atomically (throttled to
      ``status_interval``) so ``repro top`` can watch the run live.

    Everything here is wall-clock and explicitly *not* deterministic;
    the deterministic view of the same run is the ledger body built by
    :mod:`repro.obs.ledger` from :attr:`jobs` / :attr:`values`.
    """

    def __init__(self, tool: str = "campaign", obs: Optional[Any] = None,
                 status_path: Optional[str] = None,
                 status_interval: float = 0.5) -> None:
        self.tool = tool
        self.obs = obs
        self.status_path = status_path
        self.status_interval = status_interval
        self.metrics = MetricRegistry()
        self.spans: List[JobSpan] = []
        self.total = 0
        self.workers = 1
        self.executed = 0
        self.cached = 0
        self.failed = 0
        self.retries = 0
        self.by_kind: Dict[str, int] = {}
        self.queue_wait_total: float = 0.0
        self.exec_total: float = 0.0
        self.retry_seconds: float = 0.0
        self.lanes: Dict[str, Dict[str, Any]] = {}
        self.resources: Dict[str, Any] = {
            "cpu_user": 0.0, "cpu_system": 0.0, "max_rss_kb": 0,
            "engine_events": 0, "flows_modelled": 0,
        }
        self.finished = False
        self.jobs: List[Dict[str, str]] = []
        self.values: List[Any] = []
        self._last_span: Dict[str, str] = {}
        self._start: Optional[float] = None
        self._last_status_write = 0.0

    # ------------------------------------------------------------------
    def start(self, total: int, workers: int = 1) -> None:
        self.total = total
        self.workers = max(workers, 1)
        self._start = time.monotonic()
        self.metrics.gauge("run.total").set(total)
        self.metrics.gauge("run.workers").set(self.workers)
        self.write_status(force=True)

    @property
    def elapsed(self) -> float:
        if self._start is None:
            return 0.0
        return time.monotonic() - self._start

    @property
    def done(self) -> int:
        return self.executed + self.cached + self.failed

    @property
    def cache_ratio(self) -> Optional[float]:
        return self.cached / self.done if self.done else None

    @property
    def throughput(self) -> Optional[float]:
        """Finished jobs per wall-clock second so far."""
        elapsed = self.elapsed
        return self.done / elapsed if elapsed > 0 and self.done else None

    @property
    def eta(self) -> Optional[float]:
        """Remaining wall-clock estimate, charging retry time to jobs."""
        if self.executed == 0 or self.total <= 0:
            return None
        mean_cost = (self.exec_total + self.retry_seconds) / self.executed
        remaining = max(self.total - self.done, 0)
        return mean_cost * remaining / self.workers

    # ------------------------------------------------------------------
    def record_span(self, job_hash: str, kind: str, label: str, *,
                    status: str, cached: bool = False, attempt: int = 0,
                    worker: Optional[int] = None,
                    queue_wait: float = 0.0, exec_time: float = 0.0,
                    error: Optional[str] = None,
                    resources: Optional[Mapping[str, Any]] = None,
                    ) -> JobSpan:
        """Record one attempt outcome and update every live view."""
        span = JobSpan(
            span_id=f"{job_hash[:12]}#{attempt}", job_hash=job_hash,
            kind=kind, label=label, status=status, cached=cached,
            attempt=attempt, worker=worker,
            queue_wait=max(queue_wait, 0.0), exec_time=max(exec_time, 0.0),
            retry_of=self._last_span.get(job_hash), error=error,
            resources=dict(resources) if resources else None)
        self._last_span[job_hash] = span.span_id
        self.spans.append(span)
        self._aggregate(span)
        if self.obs is not None:
            fields = span.to_dict()
            # "kind" is the record kind in emit(); the job kind travels
            # as job_kind in the trace-record fields.
            fields["job_kind"] = fields.pop("kind")
            self.obs.emit(self.elapsed, CAMPAIGN_SPAN, -1, **fields)
        self.write_status()
        return span

    def _aggregate(self, span: JobSpan) -> None:
        metrics = self.metrics
        if span.status == "retry":
            self.retries += 1
            self.retry_seconds += span.exec_time
            metrics.counter("run.retries").add()
        else:
            if span.cached:
                self.cached += 1
            elif span.status == "ok":
                self.executed += 1
            else:
                self.failed += 1
            self.by_kind[span.kind] = self.by_kind.get(span.kind, 0) + 1
            outcome = "cached" if span.cached else span.status
            metrics.counter("run.jobs", status=outcome).add()
            metrics.counter("run.jobs_by_kind", kind=span.kind).add()
        if not span.cached:
            self.queue_wait_total += span.queue_wait
            if span.status != "retry":
                # Retry attempts' time is already in retry_seconds;
                # adding it here too would double-charge the ETA mean.
                self.exec_total += span.exec_time
            metrics.histogram("run.queue_wait",
                              buckets=SPAN_BUCKETS).observe(span.queue_wait)
            metrics.histogram("run.exec_seconds",
                              buckets=SPAN_BUCKETS).observe(span.exec_time)
        if span.resources:
            self._absorb_resources(span.resources)
        lane_key = str(span.worker) if span.worker is not None else "inline"
        lane = self.lanes.setdefault(
            lane_key, {"attempts": 0, "jobs": 0, "busy": 0.0,
                       "last": "", "last_status": ""})
        lane["attempts"] += 1
        if span.status != "retry":
            lane["jobs"] += 1
        lane["busy"] += span.exec_time
        lane["last"] = span.label
        lane["last_status"] = "cached" if span.cached else span.status
        self._refresh_gauges()

    def _absorb_resources(self, delta: Mapping[str, Any]) -> None:
        res = self.resources
        metrics = self.metrics
        for key in ("cpu_user", "cpu_system"):
            amount = float(delta.get(key, 0.0) or 0.0)
            res[key] += amount
            metrics.counter("run.cpu_seconds",
                            mode=key.split("_", 1)[1]).add(amount)
        rss = int(delta.get("max_rss_kb", 0) or 0)
        if rss > res["max_rss_kb"]:
            res["max_rss_kb"] = rss
            metrics.gauge("run.max_rss_kb").set(rss)
        for key in ("engine_events", "flows_modelled"):
            amount = int(delta.get(key, 0) or 0)
            if amount > 0:
                res[key] += amount
                metrics.counter(f"run.{key}").add(amount)

    def _refresh_gauges(self) -> None:
        metrics = self.metrics
        metrics.gauge("run.done").set(self.done)
        metrics.gauge("run.elapsed_seconds").set(round(self.elapsed, 3))
        if self.cache_ratio is not None:
            metrics.gauge("run.cache_ratio").set(round(self.cache_ratio, 4))
        if self.throughput is not None:
            metrics.gauge("run.throughput").set(round(self.throughput, 4))
        eta = self.eta
        if eta is not None:
            metrics.gauge("run.eta_seconds").set(round(eta, 3))

    # ------------------------------------------------------------------
    def complete(self, results: Sequence[Any]) -> None:
        """Capture the spec-ordered results and finalise the run.

        ``results`` duck-types the scheduler's CampaignResult (``spec``
        with ``job_hash``/``kind``/``label``, plus ``value``) so this
        layer never imports ``repro.campaign``.  Spec order is the
        deterministic order the ledger body is built in.
        """
        self.jobs = [{"hash": r.spec.job_hash, "kind": r.spec.kind,
                      "label": r.spec.label or r.spec.kind}
                     for r in results]
        self.values = [r.value for r in results]
        self.finished = True
        self._refresh_gauges()
        self.write_status(force=True)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable live view (the ``status.json`` payload)."""
        return {
            "schema": STATUS_SCHEMA_VERSION,
            "tool": self.tool,
            "finished": self.finished,
            "total": self.total,
            "done": self.done,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "retries": self.retries,
            "by_kind": dict(sorted(self.by_kind.items())),
            "elapsed": round(self.elapsed, 3),
            "eta": None if self.eta is None else round(self.eta, 3),
            "cache_ratio": (None if self.cache_ratio is None
                            else round(self.cache_ratio, 4)),
            "throughput": (None if self.throughput is None
                           else round(self.throughput, 4)),
            "queue_wait_total": round(self.queue_wait_total, 3),
            "exec_total": round(self.exec_total, 3),
            "retry_seconds": round(self.retry_seconds, 3),
            "workers": self.workers,
            "lanes": {k: dict(v) for k, v in sorted(self.lanes.items())},
            "resources": dict(self.resources),
        }

    def write_status(self, force: bool = False) -> None:
        """Atomically rewrite ``status_path`` (throttled unless forced)."""
        if self.status_path is None:
            return
        now = time.monotonic()
        if not force and now - self._last_status_write < self.status_interval:
            return
        self._last_status_write = now
        tmp = f"{self.status_path}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.snapshot(), handle, sort_keys=True, indent=2)
            handle.write("\n")
        os.replace(tmp, self.status_path)

    def execution_record(self) -> Dict[str, Any]:
        """The wall-clock sidecar payload for :func:`write_ledger`."""
        return {"status": self.snapshot(),
                "spans": [span.to_dict() for span in self.spans]}
