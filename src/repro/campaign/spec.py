"""Declarative experiment jobs with stable content hashes.

A campaign is a list of :class:`JobSpec`\\ s.  Each spec is a pure-data
description of one simulation — the job *kind* (which registered runner
executes it, see :mod:`repro.campaign.jobs`) plus a JSON-serialisable
``params`` mapping (scenario fields, cc, size, seed, knobs).  Because the
spec is data, it can be shipped to a worker process, written next to its
result on disk, and hashed: :attr:`JobSpec.job_hash` is a SHA-256 over
the canonical JSON of ``(kind, params)``, so two specs collide exactly
when they describe the same simulation.  The display ``label`` is
excluded from the hash.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, Mapping, Optional, Sequence, Union

from repro.core.units import MILLIS_PER_SECOND, Bytes, PerSecond, Seconds
from repro.workloads.scenarios import INTERNET_SCENARIOS, PathScenario

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.topo import TopologySpec


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace, no NaN)."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


@dataclass(frozen=True)
class JobSpec:
    """One schedulable simulation job.

    ``params`` must contain only JSON-serialisable values (numbers,
    strings, bools, None, lists, dicts) — it is the unit of caching and
    of inter-process transport.
    """

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)
    label: str = ""  # human-readable; not part of the identity hash

    @property
    def job_hash(self) -> str:
        payload = canonical_json({"kind": self.kind, "params": self.params})
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def to_json(self) -> Dict[str, Any]:
        return {"kind": self.kind, "params": self.params, "label": self.label}

    @classmethod
    def from_json(cls, data: Mapping[str, Any]) -> "JobSpec":
        return cls(kind=data["kind"], params=dict(data["params"]),
                   label=data.get("label", ""))


def _resolve_scenario(scenario: Union[str, PathScenario]) -> PathScenario:
    if isinstance(scenario, str):
        if scenario not in INTERNET_SCENARIOS:
            known = ", ".join(sorted(INTERNET_SCENARIOS))
            raise KeyError(f"unknown scenario {scenario!r}; known: {known}")
        return INTERNET_SCENARIOS[scenario]
    return scenario


def single_flow_job(scenario: Union[str, PathScenario], cc: str,
                    size_bytes: Bytes, seed: int = 0, *,
                    delayed_ack: bool = False, ecn: bool = False,
                    trace_digest: bool = False,
                    knobs: Optional[Mapping[str, Any]] = None) -> JobSpec:
    """Spec for one seeded download (the :func:`run_single_flow` unit).

    The scenario is embedded by value (its dataclass fields), so custom
    ``replace()``-derived scenarios hash and replay correctly.

    ``trace_digest=True`` makes the job run under a streaming
    :class:`repro.obs.DigestSink` and report the SHA-256 of its trace in
    the result (the determinism cross-check uses this to compare
    ``jobs=1`` against ``jobs=N`` runs).  The key is added to ``params``
    only when set, so pre-existing job hashes — and therefore cached
    results — are unaffected.
    """
    sc = _resolve_scenario(scenario)
    params: Dict[str, Any] = {
        "scenario": dataclasses.asdict(sc),
        "cc": cc,
        "size_bytes": int(size_bytes),
        "seed": int(seed),
        "delayed_ack": bool(delayed_ack),
        "ecn": bool(ecn),
    }
    if trace_digest:
        params["trace_digest"] = True
    if knobs:
        params["knobs"] = dict(knobs)
    return JobSpec(kind="single_flow", params=params,
                   label=f"{sc.name} {cc} {size_bytes}B seed={seed}")


def topo_flow_job(scenario: Union[str, TopologySpec, Mapping[str, Any]],
                  cc: str, size_bytes: Bytes, seed: int = 0, *,
                  cross_load: float = 1.0, cross_cc: str = "cubic",
                  knobs: Optional[Mapping[str, Any]] = None) -> JobSpec:
    """Spec for one seeded download over a topogen scenario.

    The topology is embedded by value — its canonical dict — so the job
    hashes, ships to workers, and replays standalone; two jobs collide
    exactly when scenario + workload + seed match.  ``cross_load``
    scales the spec's declared cross-traffic plans (0 disables them; 1,
    the default, runs them as declared) and is added to ``params`` only
    when non-default so unscaled job hashes stay stable.
    """
    # topogen (and through it net / sim / tcp) loads only for a topo job
    from repro.workloads.topo import resolve_topo

    spec = resolve_topo(scenario)
    params: Dict[str, Any] = {
        "topo": spec.canonical(),
        "cc": cc,
        "size_bytes": int(size_bytes),
        "seed": int(seed),
    }
    if cross_load != 1.0:
        params["cross_load"] = float(cross_load)
    if cross_cc != "cubic":
        params["cross_cc"] = cross_cc
    if knobs:
        params["knobs"] = dict(knobs)
    return JobSpec(kind="topo_flow", params=params,
                   label=f"{spec.name} {cc} {size_bytes}B seed={seed}")


def flowsim_sweep_job(path: Mapping[str, Any], flows: int, *,
                      size_dist: str = "campus",
                      models: Sequence[str] = ("csa00", "csa00+suss"),
                      seed: int = 1, arrival_rate: PerSecond = 1000.0,
                      knobs: Optional[Mapping[str, Any]] = None) -> JobSpec:
    """Spec for one analytical fleet sweep (the :mod:`repro.flowsim` tier).

    ``path`` is the field mapping of a
    :class:`repro.flowsim.model.PathParams` (``dataclasses.asdict`` of
    one, or a hand-written dict) — embedded by value like scenarios so
    the job hashes and replays standalone.  A million-flow sweep is one
    job: :func:`repro.flowsim.driver.run_sweep` models 10^6 flows in a
    few seconds in one process.
    """
    if flows <= 0:
        raise ValueError("flows must be positive")
    params: Dict[str, Any] = {
        "path": dict(path),
        "flows": int(flows),
        "size_dist": size_dist,
        "models": list(models),
        "seed": int(seed),
        "arrival_rate": float(arrival_rate),
    }
    if knobs:
        params["knobs"] = dict(knobs)
    return JobSpec(kind="flowsim_sweep", params=params,
                   label=f"flowsim {size_dist} x{flows} seed={seed}")


def stability_job(large_cc: str, buffer_bdp: float, large_rtt: Seconds,
                  suss: bool, large_size: Bytes, small_size: Bytes, n_small: int,
                  bottleneck_mbps: float, horizon: Seconds, seed: int,
                  rtts: Sequence[Seconds], *,
                  knobs: Optional[Mapping[str, Any]] = None) -> JobSpec:
    """Spec for one seeded Table-1 stability run (large flow + small flows)."""
    params: Dict[str, Any] = {
        "large_cc": large_cc,
        "buffer_bdp": float(buffer_bdp),
        "large_rtt": float(large_rtt),
        "suss": bool(suss),
        "large_size": int(large_size),
        "small_size": int(small_size),
        "n_small": int(n_small),
        "bottleneck_mbps": float(bottleneck_mbps),
        "horizon": float(horizon),
        "seed": int(seed),
        "rtts": [float(r) for r in rtts],
    }
    if knobs:
        params["knobs"] = dict(knobs)
    suss_tag = "suss-on" if suss else "suss-off"
    return JobSpec(kind="stability", params=params,
                   label=(f"table1 {large_cc} buf={buffer_bdp} "
                          f"rtt={large_rtt * MILLIS_PER_SECOND:.0f}ms {suss_tag} "
                          f"seed={seed}"))


def fairness_job(rtt: Seconds, buffer_bdp: float, cc: str, *,
                 bottleneck_mbps: float = 50.0, join_time: Seconds = 16.0,
                 horizon: Seconds = 40.0, seed: int = 0,
                 recovery_threshold: float = 0.95, window: float = 2.0,
                 knobs: Optional[Mapping[str, Any]] = None) -> JobSpec:
    """Spec for one Fig.-15 fairness cell (four flows plus a late joiner)."""
    params: Dict[str, Any] = {
        "rtt": float(rtt),
        "buffer_bdp": float(buffer_bdp),
        "cc": cc,
        "bottleneck_mbps": float(bottleneck_mbps),
        "join_time": float(join_time),
        "horizon": float(horizon),
        "seed": int(seed),
        "recovery_threshold": float(recovery_threshold),
        "window": float(window),
    }
    if knobs:
        params["knobs"] = dict(knobs)
    return JobSpec(kind="fairness_cell", params=params,
                   label=(f"fig15 {cc} rtt={rtt * MILLIS_PER_SECOND:.0f}ms "
                          f"buf={buffer_bdp} seed={seed}"))
