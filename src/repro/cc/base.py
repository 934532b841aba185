"""Congestion-control interface, mirroring Linux ``tcp_congestion_ops``.

A :class:`CongestionControl` owns ``cwnd``/``ssthresh`` and optionally a
pacing rate; the TCP sender (:mod:`repro.tcp.sender`) owns sequence state,
loss detection, and timers, and feeds the CC per-ACK events.  Experiments
select an algorithm by name (``"cubic"``, ``"cubic+suss"``, ``"bbr"``, ...)
the way ``net.ipv4.tcp_congestion_control`` selects a kernel module, and
like ``tcp_ca_find_autoload()`` :func:`create` loads the module that
implements a built-in name the first time a flow asks for it.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.tcp.sender import TcpSender


@dataclass(slots=True)
class AckInfo:
    """Per-ACK information handed to the congestion control.

    Attributes:
        now: simulation time of the ACK arrival.
        acked_bytes: bytes newly acknowledged by this (cumulative) ACK.
        ack_seq: the cumulative acknowledgement sequence.
        rtt_sample: RTT measured from this ACK, or None (Karn).
        flight: bytes in flight after processing the ACK.
        delivery_rate: estimated delivery rate sample (bytes/s), or None.
        app_limited: True when the sender had no data to keep the pipe full.
        in_recovery: True while the sender is in fast recovery.
    """

    now: float
    acked_bytes: int
    ack_seq: int
    rtt_sample: Optional[float]
    flight: int
    delivery_rate: Optional[float] = None
    app_limited: bool = False
    in_recovery: bool = False


class CongestionControl(ABC):
    """Base class for congestion-control algorithms."""

    #: human-readable algorithm name (set by subclasses)
    name = "base"

    def __init__(self) -> None:
        self.sender: Optional["TcpSender"] = None

    # -- lifecycle -----------------------------------------------------
    def attach(self, sender: "TcpSender") -> None:
        """Bind to a sender.  Called once, before the first transmission."""
        self.sender = sender
        self.init()

    def init(self) -> None:
        """Algorithm-specific initialisation (cwnd is already at IW)."""

    # -- required state ------------------------------------------------
    @property
    @abstractmethod
    def cwnd(self) -> int:
        """Congestion window in bytes."""

    @property
    @abstractmethod
    def ssthresh(self) -> int:
        """Slow-start threshold in bytes."""

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    @property
    def pacing_rate(self) -> Optional[float]:
        """Pacing rate in bytes/second, or None for pure ACK clocking."""
        return None

    # -- event hooks ----------------------------------------------------
    @abstractmethod
    def on_ack(self, ack: AckInfo) -> None:
        """A cumulative ACK advanced ``snd_una``."""

    def on_dupack(self, now: float) -> None:
        """A duplicate ACK arrived (before any loss event is declared)."""

    @abstractmethod
    def on_loss(self, now: float) -> None:
        """Fast-retransmit loss event (at most once per window)."""

    def on_ecn(self, now: float) -> None:
        """ECN congestion echo (at most once per window).

        RFC 3168 mandates the same multiplicative decrease as a loss;
        algorithms with gentler ECN responses override this.
        """
        self.on_loss(now)

    @abstractmethod
    def on_rto(self, now: float) -> None:
        """Retransmission timeout fired."""

    def on_recovery_exit(self, now: float) -> None:
        """Fast recovery completed (``snd_una`` passed the recovery point)."""

    def on_round_start(self, now: float, round_index: int) -> None:
        """A new delivery round began (optional hook)."""

    def on_data_start(self, now: float) -> None:
        """The handshake completed and data transmission is about to begin.

        The handshake RTT is already folded into the sender's estimator,
        so schemes that size their initial behaviour from it (JumpStart,
        initial spreading, ...) hook in here.
        """

    def on_flow_complete(self, now: float) -> None:
        """The flow finished (optional hook, e.g. for cross-flow caches)."""

    # -- conveniences ----------------------------------------------------
    @property
    def mss(self) -> int:
        assert self.sender is not None
        return self.sender.mss

    @property
    def min_rtt(self) -> Optional[float]:
        assert self.sender is not None
        return self.sender.rtt.min_rtt


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
CcFactory = Callable[..., CongestionControl]

#: The built-in algorithms: name -> (module, class, constructor arguments).
#: The rows are data, so listing the names imports nothing and ``cc`` names
#: the ``core`` modules without importing that layer (DESIGN.md §6).
_BUILTIN: Dict[str, Tuple[str, str, Dict[str, Any]]] = {
    "bbr": ("repro.cc.bbr", "Bbr", {}),
    "bbr2": ("repro.cc.bbr2", "Bbr2", {}),
    "bbr+suss": ("repro.core.suss_bbr", "SussBbr", {}),
    "cubic": ("repro.cc.cubic", "Cubic", {}),
    "cubic-nohystart": ("repro.cc.cubic", "Cubic", {"hystart_enabled": False}),
    "cubic+hystartpp": ("repro.cc.hystart_pp", "HyStartPP", {}),
    "cubic+suss": ("repro.core.suss", "SussCubic", {}),
    "cubic+suss-k2": ("repro.core.suss", "SussCubic", {"k_max": 2}),
    "cubic+suss-k3": ("repro.core.suss", "SussCubic", {"k_max": 3}),
    "cubic-iw32": ("repro.cc.slowstart_variants", "LargeIwCubic",
                   {"iw_segments": 32}),
    "cubic-iw64": ("repro.cc.slowstart_variants", "LargeIwCubic",
                   {"iw_segments": 64}),
    "cubic-spread-iw32": ("repro.cc.slowstart_variants",
                          "InitialSpreadingCubic", {"iw_segments": 32}),
    "cubic-spread-iw64": ("repro.cc.slowstart_variants",
                          "InitialSpreadingCubic", {"iw_segments": 64}),
    "cubic-stateful": ("repro.cc.slowstart_variants", "StatefulCubic", {}),
    "halfback": ("repro.cc.slowstart_variants", "Halfback", {}),
    "jumpstart": ("repro.cc.slowstart_variants", "JumpStart", {}),
    "reno": ("repro.cc.reno", "Reno", {}),
}
#: algorithms a caller added at run time through :func:`register`
_REGISTRY: Dict[str, CcFactory] = {}


def register(name: str, factory: CcFactory) -> None:
    """Register a caller's own congestion-control factory under ``name``."""
    key = name.lower()
    if key in _BUILTIN or key in _REGISTRY:
        raise ValueError(f"congestion control {name!r} already registered")
    _REGISTRY[key] = factory


def create(name: str, **kwargs) -> CongestionControl:
    """Instantiate a congestion control by name, importing only the module
    that implements it."""
    key = name.lower()
    if key in _REGISTRY:
        return _REGISTRY[key](**kwargs)
    if key not in _BUILTIN:
        raise KeyError(
            f"unknown congestion control {name!r}; known: {available()}")
    module, cls, arguments = _BUILTIN[key]
    return getattr(import_module(module), cls)(**arguments, **kwargs)


def available() -> List[str]:
    """Names of all congestion-control algorithms, built-in and registered."""
    return sorted([*_BUILTIN, *_REGISTRY])
