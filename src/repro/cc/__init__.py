"""Congestion-control algorithms and their registry."""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "AckInfo": "base",
    "CongestionControl": "base",
    "available": "base",
    "create": "base",
    "register": "base",
    "Bbr": "bbr",
    "Bbr2": "bbr2",
    "Cubic": "cubic",
    "HyStart": "hystart",
    "HyStartPP": "hystart_pp",
    "Reno": "reno",
    "WindowedFilter": "filters",
    "windowed_max": "filters",
    "windowed_min": "filters",
    "Halfback": "slowstart_variants",
    "InitialSpreadingCubic": "slowstart_variants",
    "JumpStart": "slowstart_variants",
    "LargeIwCubic": "slowstart_variants",
    "StatefulCubic": "slowstart_variants",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
