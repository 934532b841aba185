"""Run-level telemetry: campaign spans and resource accounting.

The per-packet observability stack (records/sinks, DESIGN.md §7)
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
  one per sweep, so the hot loops stay untouched.
* **resource sampling** (:func:`sample_resources`,
  :func:`resource_delta`) — CPU via :func:`os.times`, peak RSS via
  :mod:`resource` (guarded import; absent on some platforms), plus the
  process counters, so a worker can report exactly the work a job did.
* :class:`RunTelemetry` — the one observer of a run: typed
  :class:`JobSpan` records with retry lineage (emitted through the
  existing :class:`~repro.obs.tracer.Observability` machinery as
  ``campaign.span`` trace records) and running totals, from which the
  stderr narration, ``--stats-json`` and the run ledger are all read
  (DESIGN.md §11).

Wall-clock use is deliberate and legal here: ``repro/obs/`` is exempt
from DET001, and nothing this module produces participates in golden
digests or the deterministic run-ledger body (:mod:`repro.obs.ledger`
keeps wall-clock strictly in the ``.run.json`` sidecar).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import IO, Any, Dict, List, Mapping, Optional, Sequence

from repro.obs.records import CAMPAIGN_SPAN

try:  # pragma: no cover - absent only on non-POSIX platforms
    import resource as _resource
except ImportError:  # pragma: no cover
    _resource = None  # type: ignore[assignment]

#: schema version of the status snapshot and span dict encodings.
STATUS_SCHEMA_VERSION = 1


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
    """The one observer of a campaign-shaped run.

    The scheduler calls :meth:`start`, then :meth:`record_span` once per
    attempt outcome (cache hit, success, retryable failure, terminal
    failure), and :meth:`complete` with the spec-ordered results.  Each
    span is kept in :attr:`spans`, folded into running totals, emitted
    as a ``campaign.span`` trace record when an
    :class:`~repro.obs.tracer.Observability` hub is attached, and
    narrated on ``stream`` (at most one line per ``min_interval``
    seconds, except failures, retries and the last job).  Every other
    report is a read of that state: :meth:`stats` (``--stats-json``) and
    the run ledger — :attr:`jobs` / :attr:`values`, its deterministic
    body (:mod:`repro.obs.ledger`), and :meth:`execution_record`, its
    wall-clock ``.run.json`` sidecar.
    """

    def __init__(self, tool: str = "campaign", obs: Optional[Any] = None,
                 stream: Optional[IO[str]] = None,
                 min_interval: float = 0.0) -> None:
        self.tool = tool
        self.obs = obs
        self.stream = stream
        self.min_interval = min_interval
        self.spans: List[JobSpan] = []
        self.total = 0
        self.workers = 1
        self.executed = 0
        self.cached = 0
        self.failed = 0
        self.retries = 0
        self.exec_total: float = 0.0
        self.retry_seconds: float = 0.0
        self.lanes: Dict[str, Dict[str, Any]] = {}
        self.resources: Dict[str, Any] = {
            "cpu_user": 0.0, "cpu_system": 0.0, "max_rss_kb": 0,
            "engine_events": 0, "flows_modelled": 0,
        }
        self.jobs: List[Dict[str, str]] = []
        self.values: List[Any] = []
        self._last_span: Dict[str, str] = {}
        self._start: Optional[float] = None
        self._end: Optional[float] = None
        self._last_print = 0.0

    # ------------------------------------------------------------------
    def start(self, total: int, workers: int = 1) -> None:
        self.total = total
        self.workers = max(workers, 1)
        self._start = time.monotonic()
        self._end = None
        self._print(f"campaign: {total} jobs on {self.workers} worker(s)",
                    force=True)

    @property
    def finished(self) -> bool:
        return self._end is not None

    @property
    def elapsed(self) -> float:
        """Wall-clock since :meth:`start`; stops at :meth:`complete`."""
        if self._start is None:
            return 0.0
        end = self._end if self._end is not None else time.monotonic()
        return end - self._start

    @property
    def done(self) -> int:
        return self.executed + self.cached + self.failed

    @property
    def eta(self) -> Optional[float]:
        """Remaining wall-clock estimate from mean job *cost*: retry
        time is charged to the jobs that caused it, and ``remaining`` is
        clamped at zero so late stragglers cannot drive it negative."""
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
        """Record one attempt outcome.  A cache hit carries the stored
        run's ``exec_time`` for the narration and :meth:`stats` but
        spends none now, so it enters no busy or exec total."""
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
        if self.stream is not None:
            self._narrate(span)
        return span

    def _aggregate(self, span: JobSpan) -> None:
        if span.status == "retry":
            self.retries += 1
            self.retry_seconds += span.exec_time
        else:
            if span.cached:
                self.cached += 1
            elif span.status == "ok":
                self.executed += 1
            else:
                self.failed += 1
        lane_key = str(span.worker) if span.worker is not None else "inline"
        lane = self.lanes.setdefault(lane_key, {"jobs": 0, "busy": 0.0})
        if span.status != "retry":
            lane["jobs"] += 1
        if not span.cached:
            lane["busy"] += span.exec_time
            if span.status != "retry":
                # Retry attempts' time is already in retry_seconds;
                # adding it here too would double-charge the ETA mean.
                self.exec_total += span.exec_time
        if span.resources:
            self._absorb_resources(span.resources)

    def _absorb_resources(self, delta: Mapping[str, Any]) -> None:
        res = self.resources
        for key in ("cpu_user", "cpu_system"):
            res[key] += float(delta.get(key, 0.0) or 0.0)
        res["max_rss_kb"] = max(res["max_rss_kb"],
                                int(delta.get("max_rss_kb", 0) or 0))
        for key in ("engine_events", "flows_modelled"):
            res[key] += max(int(delta.get(key, 0) or 0), 0)

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
        self._end = time.monotonic()
        self._print(
            f"campaign done: executed={self.executed} "
            f"cached={self.cached} failed={self.failed} "
            f"elapsed={self.elapsed:.1f}s", force=True)

    # ------------------------------------------------------------------
    def _narrate(self, span: JobSpan) -> None:
        tag = "cached" if span.cached else span.status
        line = (f"[{self.done}/{self.total}] {tag:<6} {span.label}"
                f" ({span.exec_time:.2f}s)")
        if span.error:
            line += f" — {span.error}"
        if span.status != "retry" and self.done < self.total:
            eta = self.eta
            if eta is not None:
                line += f" | eta {eta:.0f}s"
        self._print(line, force=(span.status != "ok"
                                 or self.done == self.total))

    def _print(self, line: str, force: bool = False) -> None:
        if self.stream is None:
            return
        now = time.monotonic()
        if not force and now - self._last_print < self.min_interval:
            return
        self._last_print = now
        print(line, file=self.stream, flush=True)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Counts plus one record per finished job (``--stats-json``)."""
        records = []
        for span in self.spans:
            if span.status == "retry":
                continue
            record: Dict[str, Any] = {
                "label": span.label, "status": span.status,
                "runtime": span.exec_time, "cached": span.cached,
                "attempts": span.attempt, "hash": span.job_hash}
            if span.error:
                record["error"] = span.error
            records.append(record)
        return {"total": self.total, "executed": self.executed,
                "cached": self.cached, "failed": self.failed,
                "retries": self.retries, "elapsed": self.elapsed,
                "job_records": records}

    def snapshot(self) -> Dict[str, Any]:
        """JSON-serialisable totals: the ``.run.json`` sidecar's
        ``status`` payload, which ``repro report`` reads."""
        done, elapsed = self.done, self.elapsed
        return {
            "schema": STATUS_SCHEMA_VERSION,
            "tool": self.tool,
            "finished": self.finished,
            "total": self.total,
            "executed": self.executed,
            "cached": self.cached,
            "failed": self.failed,
            "retries": self.retries,
            "elapsed": round(elapsed, 3),
            "cache_ratio": round(self.cached / done, 4) if done else None,
            # finished jobs per wall-clock second so far
            "throughput": (round(done / elapsed, 4)
                           if done and elapsed > 0 else None),
            "retry_seconds": round(self.retry_seconds, 3),
            "lanes": {k: dict(v) for k, v in sorted(self.lanes.items())},
            "resources": dict(self.resources),
        }

    def execution_record(self) -> Dict[str, Any]:
        """The wall-clock sidecar payload for :func:`write_ledger`."""
        return {"status": self.snapshot(),
                "spans": [span.to_dict() for span in self.spans]}
