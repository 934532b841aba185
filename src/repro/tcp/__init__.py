"""Simulated TCP stack: sender, receiver, RTT estimation, pacing, wiring."""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "StreamingSource": "stream",
    "open_stream": "stream",
    "Transfer": "connection",
    "open_transfer": "connection",
    "Pacer": "pacer",
    "TcpReceiver": "receiver",
    "RttEstimator": "rtt",
    "TcpSender": "sender",
    "DEFAULT_IW_SEGMENTS": "sender",
    "DUPACK_THRESHOLD": "sender",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
