"""Flow-model protocol and shared types for the analytical fidelity tier.

A :class:`FlowModel` maps (flow size, path) to a :class:`FlowEstimate`
in closed form — no engine events, no packets, O(1) per flow.  The two
concrete models are :class:`repro.flowsim.csa00.Csa00Model` (the
Cardwell–Savage–Anderson FCT structure) and its SUSS extension
:class:`repro.flowsim.suss_term.SussCsa00Model` (compressed slow start).

:class:`PathParams` is the analytical tier's view of a scenario: the
handful of numbers the closed forms need, derived from the same
:class:`repro.workloads.scenarios.PathScenario` the packet-level tier
builds networks from, so one scenario definition feeds both tiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.core.units import Bytes, BytesPerSec, Seconds, Segments
from repro.net.packet import DEFAULT_MSS, HEADER_BYTES
from repro.tcp.sender import DEFAULT_IW_SEGMENTS
from repro.workloads.scenarios import PathScenario

#: slow-start rounds double per RTT when every data packet is ACKed,
#: and grow 1.5x when the receiver delays every other ACK (the CSA00
#: ``gamma``); matches repro.tcp.receiver's delayed-ACK behaviour.
GAMMA_PER_ACK = 2.0
GAMMA_DELAYED_ACK = 1.5

#: access links in build_dumbbell run at 10x the bottleneck, so each
#: packet pays 1/10 of its bottleneck serialisation twice more (server
#: uplink + client downlink) on top of the bottleneck itself.
ACCESS_SERIALISATION_FACTOR = 1.2


@dataclass(frozen=True)
class PathParams:
    """The analytical tier's path description (all rates in bytes/sec)."""

    rtt: Seconds                  # two-way propagation delay
    btl_bw: BytesPerSec           # bottleneck wire rate
    loss_rate: float = 0.0        # random (non-congestion) loss probability
    mss: Bytes = DEFAULT_MSS      # payload bytes per segment
    header_bytes: Bytes = HEADER_BYTES
    iw_segments: Segments = DEFAULT_IW_SEGMENTS
    delayed_ack: bool = False
    buffer_bdp: float = 1.0       # bottleneck buffer in BDP multiples
    rwnd: Bytes = 1 << 30         # receive window

    def __post_init__(self) -> None:
        if not self.rtt > 0 or not math.isfinite(self.rtt):
            raise ValueError("rtt must be positive and finite")
        if not self.btl_bw > 0 or not math.isfinite(self.btl_bw):
            raise ValueError("btl_bw must be positive and finite")
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError("loss_rate must be within [0, 1)")
        if self.mss <= 0 or self.iw_segments <= 0:
            raise ValueError("mss and iw_segments must be positive")

    @classmethod
    def from_scenario(cls, scenario: PathScenario, *,
                      delayed_ack: bool = False) -> "PathParams":
        """Project a packet-tier scenario onto the analytical tier.

        Bandwidth variation and jitter have zero mean, so the analytical
        tier models the mean path; the cross-validation harness measures
        how much fidelity that costs (DESIGN.md §9).
        """
        return cls(rtt=scenario.rtt, btl_bw=scenario.btl_bw,
                   loss_rate=scenario.loss_rate,
                   buffer_bdp=scenario.buffer_bdp, delayed_ack=delayed_ack)

    # -- derived quantities -------------------------------------------
    @property
    def wire_segment(self) -> Bytes:
        """Wire bytes of one full segment (payload + headers)."""
        return self.mss + self.header_bytes

    @property
    def gamma(self) -> float:
        """Per-round slow-start growth factor under the ACK regime."""
        return GAMMA_DELAYED_ACK if self.delayed_ack else GAMMA_PER_ACK

    @property
    def goodput(self) -> BytesPerSec:
        """Payload throughput of a saturated bottleneck (bytes/sec)."""
        return self.btl_bw * (self.mss / self.wire_segment)

    @property
    def effective_rtt(self) -> Seconds:
        """Propagation plus the per-packet serialisation a data/ACK pair
        pays on the dumbbell (bottleneck + two 10x access links)."""
        per_packet = (self.wire_segment + self.header_bytes) / self.btl_bw
        return self.rtt + ACCESS_SERIALISATION_FACTOR * per_packet

    @property
    def bdp_segments(self) -> Segments:
        """Pipe capacity in full segments."""
        return self.btl_bw * self.rtt / self.wire_segment

    @property
    def rwnd_segments(self) -> Segments:
        return self.rwnd / self.mss

    def segments_of(self, size_bytes: Bytes) -> int:
        """Data packets needed for ``size_bytes`` (CSA00's ``d``)."""
        if size_bytes <= 0:
            raise ValueError("size_bytes must be positive")
        return -(-size_bytes // self.mss)


@dataclass
class FlowEstimate:
    """Closed-form outcome of one modelled flow.

    ``fct`` mirrors the packet tier's definition (handshake included,
    measured sender-side to the final cumulative ACK).  ``retransmits``
    and ``loss_episodes`` are expectations, not sampled counts: the
    analytical tier reports the mean field of the per-packet process.

    Not frozen: a frozen dataclass sets each of its 15 fields through
    ``object.__setattr__``, most of an ``estimate``'s cost, and a fleet
    sweep builds ~10^4 of them.  Nothing hashes or mutates one.
    """

    model: str
    size_bytes: Bytes
    segments: int
    fct: Seconds
    handshake_time: Seconds
    ss_time: Seconds              # initial slow-start phase
    loss_recovery_time: Seconds   # expected loss-episode expansion
    ca_time: Seconds              # steady-state / congestion-avoidance tail
    ss_rounds: int
    ss_segments: Segments         # expected packets sent in slow start
    exit_cwnd_segments: Segments  # window when slow start ended
    pipe_saturated: bool          # did the window reach the BDP?
    retransmits: float            # expected retransmissions
    loss_episodes: float          # expected loss events
    rounds_saved: int = 0         # SUSS: slow-start rounds compressed away

    @property
    def loss_rate(self) -> float:
        """Expected retransmissions per data packet (the packet tier's
        ``loss_rate`` analogue)."""
        if self.segments == 0:
            return 0.0
        return self.retransmits / self.segments


class FlowModel:
    """Protocol: a named closed-form flow model.

    Concrete models implement :meth:`estimate`; everything else in the
    subsystem (driver, cross-validation, campaign jobs) sees only this
    surface.
    """

    name: str = "abstract"

    def estimate(self, size_bytes: Bytes, path: PathParams) -> FlowEstimate:
        """The closed-form outcome of a ``size_bytes`` flow on ``path``.

        It depends on ``size_bytes`` only through the segment count
        ``path.segments_of(size_bytes)``: two sizes with the same count
        give estimates equal in every field but ``size_bytes``.  The
        fleet driver rests on that, estimating once per distinct count.
        """
        raise NotImplementedError


#: registered model factories, keyed by the name jobs and the CLI use.
MODELS: Dict[str, Callable[[], FlowModel]] = {}


def register_model(name: str, factory: Callable[[], FlowModel]) -> None:
    MODELS[name] = factory


def create_model(name: str) -> FlowModel:
    try:
        factory = MODELS[name]
    except KeyError:
        raise KeyError(f"unknown flow model {name!r}; "
                       f"known: {', '.join(sorted(MODELS))}") from None
    return factory()


def available_models() -> List[str]:
    return sorted(MODELS)


def slow_start_data(iw: float, gamma: float, rounds: int) -> float:
    """Cumulative segments sent by the end of ``rounds`` slow-start rounds
    (geometric series ``iw * (gamma^rounds - 1) / (gamma - 1)``)."""
    if rounds <= 0:
        return 0.0
    if gamma == 1.0:
        return iw * rounds
    return iw * (gamma ** rounds - 1.0) / (gamma - 1.0)


def rounds_for_data(iw: float, gamma: float, segments: float) -> int:
    """Smallest round count whose cumulative slow-start data covers
    ``segments`` (inverse of :func:`slow_start_data`)."""
    if segments <= 0:
        return 0
    if gamma == 1.0:
        return max(int(math.ceil(segments / iw)), 1)
    inner = segments * (gamma - 1.0) / iw + 1.0
    return max(int(math.ceil(math.log(inner, gamma) - 1e-12)), 1)
