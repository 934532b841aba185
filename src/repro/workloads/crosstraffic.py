"""Cross-traffic generation: background flows sharing the bottleneck.

The paper's internet-scale measurements run over live paths with organic
cross traffic; the local testbed creates it explicitly with competing
flows.  :class:`CrossTraffic` produces a Poisson stream of short TCP
downloads (web-like, heavy-tailed sizes) on a designated dumbbell pair,
loading the bottleneck to a configurable fraction of its capacity so
foreground experiments can be stressed realistically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.net.topology import Dumbbell
from repro.sim.engine import Simulator
from repro.tcp.connection import Transfer, open_transfer

#: flow-size distribution: log-uniform between these bounds (bytes)
MIN_FLOW = 30_000
MAX_FLOW = 3_000_000


@dataclass
class CrossTraffic:
    """Poisson arrivals of short flows on one dumbbell pair.

    Args:
        sim: simulation engine.
        net: the dumbbell to load.
        pair_index: which server/client pair carries the cross traffic.
        target_load: desired mean offered load as a fraction of
            ``bottleneck_rate``.
        bottleneck_rate: bottleneck capacity in bytes/second.
        cc: congestion control used by cross flows.
        rng: seeded RNG (required: determinism demands an injected,
            independently seeded stream; see ``repro.sim.rng``).
        flow_id_base: cross flows are numbered from here.
    """

    sim: Simulator
    net: Dumbbell
    pair_index: int
    target_load: float
    bottleneck_rate: float
    cc: str = "cubic"
    rng: Optional[random.Random] = None
    flow_id_base: int = 10_000

    def __post_init__(self) -> None:
        if not 0 < self.target_load < 1:
            raise ValueError("target_load must be in (0, 1)")
        if self.rng is None:
            raise ValueError(
                "CrossTraffic needs an injected random.Random; derive one "
                "from the experiment's RngRegistry (e.g. "
                "rng.stream('crosstraffic')) so arrival/size streams stay "
                "independent of other stochastic components")
        self._next_id = self.flow_id_base
        self.flows: List[Transfer] = []
        # Mean size of the log-uniform distribution.
        import math
        self._mean_size = (MAX_FLOW - MIN_FLOW) / math.log(MAX_FLOW / MIN_FLOW)
        #: mean arrival rate (flows/second) for the requested load
        self.arrival_rate = (self.target_load * self.bottleneck_rate
                             / self._mean_size)
        self._stopped = False

    def start(self) -> None:
        """Begin generating arrivals."""
        self._schedule_next()

    def stop(self) -> None:
        """Stop generating new arrivals (existing flows run to completion)."""
        self._stopped = True

    @property
    def completed_flows(self) -> int:
        return sum(1 for f in self.flows if f.completed)

    def offered_bytes(self) -> int:
        return sum(f.sender.total_bytes for f in self.flows)

    # ------------------------------------------------------------------
    def _schedule_next(self) -> None:
        if self._stopped:
            return
        gap = self.rng.expovariate(self.arrival_rate)
        self.sim.schedule(gap, self._launch)

    def _sample_size(self) -> int:
        import math
        u = self.rng.random()
        return int(MIN_FLOW * math.exp(u * math.log(MAX_FLOW / MIN_FLOW)))

    def _launch(self) -> None:
        if self._stopped:
            return
        self._next_id += 1
        server = self.net.servers[self.pair_index]
        client = self.net.clients[self.pair_index]
        transfer = open_transfer(self.sim, server, client,
                                 flow_id=self._next_id,
                                 size_bytes=self._sample_size(),
                                 cc=self.cc)
        self.flows.append(transfer)
        self._schedule_next()
