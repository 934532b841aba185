"""Job kinds and the worker-side entry point.

``JOB_KINDS`` maps a :class:`~repro.campaign.spec.JobSpec` kind to a
function ``params -> result dict``; results must be JSON-serialisable so
they can cross the process boundary and land in the
:class:`~repro.campaign.store.ResultStore` unchanged.

:func:`execute_job` is the function worker processes actually run.  It
enforces the per-job wall-clock timeout (``SIGALRM``) and interprets the
fault-injection knobs (``_crash_attempts``, ``_fail_attempts``,
``_sleep`` under ``params["knobs"]``) that the test suite uses to
exercise the scheduler's retry and crash-recovery paths.  Experiment
imports happen inside the job functions: the experiment layer depends on
the campaign layer, not the other way round.
"""

from __future__ import annotations

import contextlib
import os
import signal
import time
from typing import Any, Callable, Dict, Iterator, Mapping, Optional

JOB_KINDS: Dict[str, Callable[[Mapping[str, Any]], Dict[str, Any]]] = {}


def register(kind: str):
    """Register a job runner under ``kind`` (decorator)."""
    def decorate(fn):
        JOB_KINDS[kind] = fn
        return fn
    return decorate


@register("single_flow")
def run_single_flow_job(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One seeded download; mirrors :func:`repro.experiments.runner.run_single_flow`."""
    from repro.experiments.runner import run_single_flow
    from repro.workloads.scenarios import PathScenario

    scenario = PathScenario(**params["scenario"])
    obs = None
    digest_sink = None
    if params.get("trace_digest"):
        from repro.obs.sinks import DigestSink
        from repro.obs.tracer import Observability, Tracer

        digest_sink = DigestSink()
        obs = Observability(tracer=Tracer(digest_sink))
    result = run_single_flow(
        scenario, params["cc"], params["size_bytes"], seed=params["seed"],
        delayed_ack=params.get("delayed_ack", False),
        ecn=params.get("ecn", False), obs=obs)
    value = {
        "scenario": scenario.name,
        "cc": result.cc,
        "size_bytes": result.size_bytes,
        "seed": result.seed,
        "fct": result.fct,
        "completed": result.completed,
        "retransmissions": result.retransmissions,
        "rto_count": result.rto_count,
        "data_packets_sent": result.data_packets_sent,
        "drops": result.drops,
        "loss_rate": result.loss_rate,
    }
    if digest_sink is not None:
        obs.close()
        value["trace_digest"] = digest_sink.digest()
        value["trace_records"] = digest_sink.records
    return value


@register("topo_flow")
def run_topo_flow_job(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One seeded download over an embedded topogen scenario."""
    from repro.experiments.runner import run_topo_flow

    return run_topo_flow(
        params["topo"], params["cc"], params["size_bytes"],
        seed=params["seed"],
        cross_load=params.get("cross_load", 1.0),
        cross_cc=params.get("cross_cc", "cubic"))


@register("stability")
def run_stability_job(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One seeded Table-1 run: a large flow vs twelve small flows."""
    from repro.experiments.runner import run_local_testbed
    from repro.workloads.flows import stability_workload
    from repro.workloads.scenarios import LocalTestbedConfig

    config = LocalTestbedConfig(
        bottleneck_mbps=params["bottleneck_mbps"],
        rtts=tuple(params["rtts"]),
        buffer_bdp=params["buffer_bdp"],
        reference_rtt=params["large_rtt"])
    small_cc = "cubic+suss" if params["suss"] else "cubic"
    specs = stability_workload(
        large_size=params["large_size"], large_cc=params["large_cc"],
        small_size=params["small_size"], small_cc=small_cc,
        n_small=params["n_small"])
    run = run_local_testbed(config, specs, until=params["horizon"],
                            seed=params["seed"], collect=False)
    n_small = params["n_small"]
    small_fcts = [run.fct_of(fid) for fid in range(2, 2 + n_small)]
    done = [f for f in small_fcts if f is not None]
    return {
        "large_cc": params["large_cc"],
        "seed": params["seed"],
        "horizon": params["horizon"],
        "large_fct": run.fct_of(1),
        "small_fct_mean": (sum(done) / len(done)) if done else None,
        "n_small_done": len(done),
        "n_small": n_small,
    }


@register("fairness_cell")
def run_fairness_cell_job(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One Fig.-15 Jain-fairness cell (four staggered flows + late joiner)."""
    from repro.experiments.runner import run_fairness_cell

    return run_fairness_cell(
        params["rtt"], params["buffer_bdp"], params["cc"],
        bottleneck_mbps=params["bottleneck_mbps"],
        join_time=params["join_time"], horizon=params["horizon"],
        seed=params["seed"],
        recovery_threshold=params.get("recovery_threshold", 0.95),
        window=params.get("window", 2.0))


@register("flowsim_sweep")
def run_flowsim_sweep_job(params: Mapping[str, Any]) -> Dict[str, Any]:
    """One analytical fleet sweep."""
    from repro.flowsim.driver import SweepConfig, run_sweep, sweep_to_value
    from repro.flowsim.model import PathParams

    config = SweepConfig(
        path=PathParams(**params["path"]),
        flows=params["flows"],
        size_dist=params.get("size_dist", "campus"),
        arrival_rate=params.get("arrival_rate", 1000.0),
        seed=params["seed"],
        models=tuple(params.get("models", ("csa00", "csa00+suss"))))
    return sweep_to_value(run_sweep(config))


@contextlib.contextmanager
def _wall_clock_limit(seconds: Optional[float]) -> Iterator[None]:
    """Raise TimeoutError after ``seconds`` of wall-clock time (SIGALRM)."""
    if not seconds or not hasattr(signal, "SIGALRM"):
        yield
        return

    def on_alarm(signum, frame):
        raise TimeoutError(f"job exceeded wall-clock timeout of {seconds}s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    # Repeating: CPython drops an exception raised while it runs a GC
    # callback, __del__ or weakref callback (reported as unraisable), and a
    # single-shot alarm swallowed there would leave the job with no limit.
    signal.setitimer(signal.ITIMER_REAL, seconds, 0.05)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def execute_job(payload: Mapping[str, Any], attempt: int,
                timeout: Optional[float] = None) -> Dict[str, Any]:
    """Worker entry: run one job, returning its result envelope.

    The envelope is ``{"value", "runtime", "worker", "resources"}`` —
    the value plus the execution evidence the run-telemetry layer turns
    into spans (worker pid, CPU/RSS/engine-event deltas around the job).
    Only ``value`` and ``runtime`` land in the result store.

    ``attempt`` is 1-based; fault-injection knobs compare against it so an
    injected crash/failure clears after the configured number of attempts.
    """
    from repro.obs import runtime as obs_runtime

    kind = payload["kind"]
    params = payload["params"]
    knobs = params.get("knobs") or {}
    if attempt <= knobs.get("_crash_attempts", 0):
        os._exit(13)  # hard worker death: exercises BrokenProcessPool recovery
    if attempt <= knobs.get("_fail_attempts", 0):
        raise RuntimeError(f"injected failure (attempt {attempt})")
    runner = JOB_KINDS.get(kind)
    if runner is None:
        raise KeyError(f"unknown job kind {kind!r}; "
                       f"known: {', '.join(sorted(JOB_KINDS))}")
    before = obs_runtime.sample_resources()
    start = time.perf_counter()
    with _wall_clock_limit(timeout):
        if knobs.get("_sleep"):
            time.sleep(knobs["_sleep"])
        value = runner(params)
    runtime = time.perf_counter() - start
    after = obs_runtime.sample_resources()
    return {"value": value, "runtime": runtime, "worker": os.getpid(),
            "resources": obs_runtime.resource_delta(before, after)}
