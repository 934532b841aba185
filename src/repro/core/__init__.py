"""SUSS — the paper's primary contribution.

* :mod:`repro.core.growth` — growth-factor theory (Conditions 1-2,
  Algorithm 1, Appendix A generalisation).
* :mod:`repro.core.pacing_plan` — clocking/pacing/guard geometry
  (Eqs. 9-12, Lemma 1).
* :mod:`repro.core.hystart_mod` — SUSS's modified HyStart.
* :mod:`repro.core.suss` — the CUBIC+SUSS congestion control.
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "ACK_TRAIN_FRACTION": "growth",
    "DELAY_FACTOR": "growth",
    "DEFAULT_K_MAX": "growth",
    "condition1": "growth",
    "condition2": "growth",
    "estimate_ack_train": "growth",
    "growth_factor": "growth",
    "predict_mo_rtt": "growth",
    "SussHyStart": "hystart_mod",
    "PacingPlan": "pacing_plan",
    "make_pacing_plan": "pacing_plan",
    "lemma1_lower_bound": "pacing_plan",
    "SussCubic": "suss",
    "SussBbr": "suss_bbr",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
