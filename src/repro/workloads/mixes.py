"""Traffic mixes and per-scenario cross-traffic placement.

A :class:`TrafficMix` is a named recipe for background load: a flow-size
sampler plus an arrival shape.  Three mixes cover the internet-traffic
archetypes the topogen scenario classes need:

* **web** — heavy-tailed object sizes (lognormal; mice with an elephant
  tail), one flow per Poisson arrival;
* **video** — long transfers (multi-megabyte log-uniform segments) at a
  low arrival rate: a few elephants that occupy the pipe;
* **rpc** — request bursts: each Poisson arrival launches a short
  back-to-back *train* of small flows, the incast-flavoured pattern of
  RPC fan-outs.

:class:`MixTraffic` runs a mix between *any* server/client host pair —
a dumbbell pair (``repro experiment crosstraffic``) or the endpoints of
topogen's per-scenario :class:`~repro.net.topogen.spec.CrossTrafficPlan`;
:func:`place_cross_traffic` instantiates every plan of a built topology
with independently derived RNG streams.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.units import Bytes, BytesPerSec, Seconds
from repro.net.node import Host
from repro.net.topogen.build import BuiltTopology
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.tcp.connection import Transfer, open_transfer


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    u = rng.random()
    return int(lo * math.exp(u * math.log(hi / lo)))


def _web_size(rng: random.Random) -> int:
    # Lognormal HTTP-object sizes, clamped: median ~25 KB, long tail.
    size = int(rng.lognormvariate(math.log(25_000.0), 1.6))
    return min(max(size, 1_000), 20_000_000)


def _video_size(rng: random.Random) -> int:
    # DASH-style segments: 2-16 MB log-uniform.
    return _log_uniform(rng, 2_000_000, 16_000_000)


def _rpc_size(rng: random.Random) -> int:
    # Small request/response bodies: 2-64 KB log-uniform.
    return _log_uniform(rng, 2_000, 64_000)


@dataclass(frozen=True)
class TrafficMix:
    """One named background-traffic recipe.

    ``mean_size`` is the analytical mean of the size sampler (used to
    convert a target load into an arrival rate); ``burst`` is how many
    flows each arrival launches (RPC trains; 1 for web/video).
    """

    name: str
    sample_size: Callable[[random.Random], int]
    mean_size: float
    burst: int = 1

    def arrival_rate(self, target_load: float,
                     bottleneck_rate: BytesPerSec) -> float:
        """Poisson arrival rate (arrivals/sec) for the requested load."""
        return (target_load * bottleneck_rate
                / (self.mean_size * self.burst))


def _lognormal_mean(median: float, sigma: float) -> float:
    return median * math.exp(sigma * sigma / 2.0)


def _log_uniform_mean(lo: float, hi: float) -> float:
    return (hi - lo) / math.log(hi / lo)


MIXES: Dict[str, TrafficMix] = {
    "web": TrafficMix("web", _web_size,
                      mean_size=_lognormal_mean(25_000.0, 1.6)),
    "video": TrafficMix("video", _video_size,
                        mean_size=_log_uniform_mean(2e6, 16e6)),
    "rpc": TrafficMix("rpc", _rpc_size,
                      mean_size=_log_uniform_mean(2e3, 64e3), burst=4),
}


def get_mix(name: str) -> TrafficMix:
    if name not in MIXES:
        known = ", ".join(sorted(MIXES))
        raise KeyError(f"unknown traffic mix {name!r}; known: {known}")
    return MIXES[name]


class MixTraffic:
    """Poisson (possibly bursty) background flows on one host pair.

    Bound to explicit :class:`~repro.net.node.Host` endpoints and
    parameterised by a mix.  Each arrival draws its gap, then one size
    per flow of the burst, then the next gap.  The RNG must be injected
    (determinism: derive a stream per generator from the experiment's
    :class:`~repro.sim.rng.RngRegistry`).
    """

    def __init__(self, sim: Simulator, server: Host, client: Host,
                 mix: TrafficMix, target_load: float,
                 bottleneck_rate: BytesPerSec, rng: random.Random,
                 cc: str = "cubic", flow_id_base: int = 10_000) -> None:
        if not 0 < target_load < 1:
            raise ValueError("target_load must be in (0, 1)")
        if rng is None:
            raise ValueError(
                "MixTraffic needs an injected random.Random; derive one "
                "from the experiment's RngRegistry so arrival/size "
                "streams stay independent of other stochastic components")
        self.sim = sim
        self.server = server
        self.client = client
        self.mix = mix
        self.target_load = target_load
        self.cc = cc
        self.rng = rng
        self.arrival_rate = mix.arrival_rate(target_load, bottleneck_rate)
        self.flows: List[Transfer] = []
        self._next_id = flow_id_base
        self._stopped = False

    def start(self) -> None:
        """Begin generating arrivals."""
        self._schedule_next()

    def stop(self) -> None:
        """Stop new arrivals (flows in flight run to completion)."""
        self._stopped = True

    @property
    def completed_flows(self) -> int:
        return sum(1 for f in self.flows if f.completed)

    def offered_bytes(self) -> Bytes:
        return sum(f.sender.total_bytes for f in self.flows)

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        if self._stopped:
            return
        gap: Seconds = self.rng.expovariate(self.arrival_rate)
        self.sim.schedule(gap, self._arrive)

    def _arrive(self) -> None:
        if self._stopped:
            return
        for _ in range(self.mix.burst):
            self._next_id += 1
            self.flows.append(open_transfer(
                self.sim, self.server, self.client, flow_id=self._next_id,
                size_bytes=self.mix.sample_size(self.rng), cc=self.cc))
        self._schedule_next()


def place_cross_traffic(built: BuiltTopology, rng: RngRegistry,
                        load_scale: float = 1.0, cc: str = "cubic"
                        ) -> List[MixTraffic]:
    """Instantiate (and start) every cross-traffic plan of a topology.

    Each plan gets its own derived RNG stream
    (``xtraf:<spec>:<i>:<server>-><client>``) and a flow-id block of
    10 000, so generators never collide with foreground flows (ids
    1..n) or each other.  ``load_scale`` multiplies every plan's load —
    campaign jobs use it to sweep load without re-speccing the topology
    (a scale of 0 places nothing).
    """
    generators: List[MixTraffic] = []
    if load_scale <= 0.0:
        return generators
    spec = built.spec
    for i, plan in enumerate(spec.cross_traffic):
        load = min(plan.load * load_scale, 0.95)
        bottleneck = built.bottleneck_link(plan.server, plan.client)
        stream = rng.stream(
            f"xtraf:{spec.name}:{i}:{plan.server}->{plan.client}")
        generator = MixTraffic(
            built.sim, built.hosts[plan.server], built.hosts[plan.client],
            get_mix(plan.mix), load, bottleneck.bandwidth.mean_rate(),
            stream, cc=cc, flow_id_base=10_000 * (i + 1))
        generator.start()
        generators.append(generator)
    return generators
