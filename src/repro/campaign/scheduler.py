"""Fan jobs out across worker processes; collect deterministic results.

The scheduler is the only stateful piece of the campaign subsystem.  Its
contract:

* **Deterministic ordering** — results come back in spec order whatever
  the completion order, so a campaign's output is identical at any
  ``jobs`` level (each job is a self-contained seeded simulation).
* **Caching** — with a :class:`~repro.campaign.store.ResultStore`, hits
  are returned without touching the pool and misses are persisted on
  success; an interrupted campaign resumes by simply re-running it.
* **Fault tolerance** — a job that raises is retried up to ``retries``
  times; a *worker crash* (the pool breaks) requeues every in-flight job
  against a fresh pool, with the same per-job attempt bound; per-job
  wall-clock timeouts are enforced worker-side via ``SIGALRM``.
* ``jobs <= 1`` runs inline in this process (no pool, no fork cost) and
  must produce byte-identical summaries to any parallel run.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.campaign.jobs import execute_job
from repro.campaign.spec import JobSpec
from repro.campaign.store import ResultStore
from repro.obs.runtime import RunTelemetry


@dataclass
class CampaignResult:
    """Outcome of one job: value on success, error string on failure."""

    spec: JobSpec
    status: str  # "ok" | "failed"
    value: Optional[Dict[str, Any]]
    error: Optional[str]
    attempts: int
    runtime: float
    cached: bool

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def collect_values(results: Sequence[CampaignResult]) -> List[Dict[str, Any]]:
    """Values in spec order; raises on the first failed job."""
    values = []
    for result in results:
        if not result.ok:
            raise RuntimeError(
                f"campaign job failed after {result.attempts} attempt(s): "
                f"{result.spec.label or result.spec.kind}: {result.error}")
        values.append(result.value)
    return values


def run_campaign(specs: Iterable[JobSpec], *, jobs: int = 1,
                 store: Optional[ResultStore] = None,
                 timeout: Optional[float] = None, retries: int = 2,
                 telemetry: Optional[RunTelemetry] = None
                 ) -> List[CampaignResult]:
    """Run every spec; return one :class:`CampaignResult` per spec, in order.

    ``telemetry`` (a bare, silent one when none is given) is the run's
    one observer: every attempt outcome is reported to it exactly once —
    the cache hit below, :func:`_finish`, :func:`_retry` — as a span with
    queue-wait / exec-time / worker attribution, and ``complete`` gets
    the spec-ordered results.  It never alters scheduling decisions.
    A negative ``retries`` or a ``timeout`` that is not above zero is a
    :class:`ValueError` before any job runs.
    """
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if timeout is not None and not timeout > 0:
        raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
    spec_list = list(specs)
    if telemetry is None:
        telemetry = RunTelemetry()
    telemetry.start(len(spec_list), workers=max(jobs, 1))
    results: List[Optional[CampaignResult]] = [None] * len(spec_list)

    pending: List[int] = []
    for index, spec in enumerate(spec_list):
        record = store.get(spec.job_hash) if store is not None else None
        if record is not None:
            runtime = record.get("runtime", 0.0)
            results[index] = CampaignResult(
                spec=spec, status="ok", value=record["value"], error=None,
                attempts=0, runtime=runtime, cached=True)
            telemetry.record_span(
                spec.job_hash, spec.kind, spec.label or spec.kind,
                status="ok", cached=True, exec_time=runtime)
        else:
            pending.append(index)

    if pending:
        runner = _run_inline if jobs <= 1 else _run_pool
        runner(spec_list, pending, results, jobs, store, timeout, retries,
               telemetry)
    telemetry.complete(results)
    return results  # type: ignore[return-value]  # every slot is filled


# ----------------------------------------------------------------------
def _finish(spec_list: List[JobSpec], results: List[Optional[CampaignResult]],
            store: Optional[ResultStore], telemetry: RunTelemetry,
            index: int, status: str,
            value: Optional[Dict[str, Any]], error: Optional[str],
            attempts: int, runtime: float,
            worker: Optional[int] = None, queue_wait: float = 0.0,
            resources: Optional[Dict[str, Any]] = None) -> None:
    spec = spec_list[index]
    results[index] = CampaignResult(spec=spec, status=status, value=value,
                                    error=error, attempts=attempts,
                                    runtime=runtime, cached=False)
    if status == "ok" and store is not None:
        store.put(spec.job_hash, {"spec": spec.to_json(), "value": value,
                                  "runtime": runtime, "attempts": attempts})
    telemetry.record_span(
        spec.job_hash, spec.kind, spec.label or spec.kind,
        status=status, attempt=attempts, worker=worker,
        queue_wait=queue_wait, exec_time=runtime, error=error,
        resources=resources)


def _retry(spec: JobSpec, telemetry: RunTelemetry, attempt: int,
           elapsed: float, error: str) -> None:
    """Report one failed-but-retryable attempt."""
    telemetry.record_span(
        spec.job_hash, spec.kind, spec.label or spec.kind,
        status="retry", attempt=attempt, exec_time=elapsed, error=error)


def _run_inline(spec_list, pending, results, jobs, store, timeout, retries,
                telemetry) -> None:
    for index in pending:
        payload = spec_list[index].to_json()
        attempts = 0
        last_error = None
        while attempts <= retries:
            attempts += 1
            began = time.monotonic()
            try:
                out = execute_job(payload, attempts, timeout)
            except Exception as exc:  # noqa: BLE001 — worker faults are data
                last_error = f"{type(exc).__name__}: {exc}"
                if attempts <= retries:
                    _retry(spec_list[index], telemetry, attempts,
                           time.monotonic() - began, last_error)
            else:
                _finish(spec_list, results, store, telemetry, index, "ok",
                        out["value"], None, attempts, out["runtime"],
                        worker=out.get("worker"),
                        resources=out.get("resources"))
                break
        else:
            _finish(spec_list, results, store, telemetry, index,
                    "failed", None, last_error, attempts, 0.0)


def _run_pool(spec_list, pending, results, jobs, store, timeout, retries,
              telemetry) -> None:
    # The pool machinery loads here: a run with no miss, or with
    # ``jobs <= 1``, never gets this far.
    import multiprocessing
    from concurrent.futures import (FIRST_COMPLETED, Future,
                                    ProcessPoolExecutor, wait)
    from concurrent.futures.process import BrokenProcessPool

    if "fork" in multiprocessing.get_all_start_methods():
        ctx = multiprocessing.get_context("fork")
    else:  # pragma: no cover — non-POSIX fallback
        ctx = multiprocessing.get_context()
    queue = deque(pending)
    attempts: Dict[int, int] = {index: 0 for index in pending}
    executor: Optional[ProcessPoolExecutor] = None
    in_flight: Dict[Future, Tuple[int, float]] = {}

    def retry_or_fail(index: int, error: str, elapsed: float) -> None:
        if attempts[index] <= retries:
            _retry(spec_list[index], telemetry, attempts[index], elapsed,
                   error)
            queue.append(index)
        else:
            _finish(spec_list, results, store, telemetry, index,
                    "failed", None, error, attempts[index], 0.0)

    try:
        while queue or in_flight:
            if executor is None:
                executor = ProcessPoolExecutor(max_workers=jobs,
                                               mp_context=ctx)
            # Keep the pool saturated with a small overcommit so workers
            # never idle between waits.
            while queue and len(in_flight) < 2 * jobs:
                index = queue.popleft()
                attempts[index] += 1
                future = executor.submit(execute_job,
                                         spec_list[index].to_json(),
                                         attempts[index], timeout)
                in_flight[future] = (index, time.monotonic())
            done, _ = wait(set(in_flight), return_when=FIRST_COMPLETED)
            pool_broken = False
            for future in done:
                index, submitted = in_flight.pop(future)
                elapsed = time.monotonic() - submitted
                try:
                    out = future.result()
                except BrokenProcessPool:
                    pool_broken = True
                    retry_or_fail(index, "worker process crashed", elapsed)
                except Exception as exc:  # noqa: BLE001
                    retry_or_fail(index, f"{type(exc).__name__}: {exc}",
                                  elapsed)
                else:
                    # Submit-to-collect minus worker-side execution is
                    # the span's queue wait (clamped: clock domains are
                    # the parent's monotonic vs the worker's
                    # perf_counter, so tiny negatives are possible).
                    _finish(spec_list, results, store, telemetry, index,
                            "ok", out["value"], None, attempts[index],
                            out["runtime"], worker=out.get("worker"),
                            queue_wait=max(elapsed - out["runtime"], 0.0),
                            resources=out.get("resources"))
            if pool_broken:
                # The whole pool is dead: every other in-flight job is
                # doomed too.  Requeue them (bounded by the same per-job
                # attempt budget) and start a fresh pool.
                for future, (index, submitted) in list(in_flight.items()):
                    retry_or_fail(index, "worker pool broke mid-job",
                                  time.monotonic() - submitted)
                in_flight.clear()
                executor.shutdown(wait=False, cancel_futures=True)
                executor = None
    finally:
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=True)
