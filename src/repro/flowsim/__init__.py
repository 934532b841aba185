"""repro.flowsim — the analytical (flow-level) fidelity tier.

Packet-level fidelity caps experiments at thousands of flows; this
package models flows in closed form at O(1) cost each, unlocking
million-flow SUSS studies (see DESIGN.md §9 "Fidelity tiers"):

* :mod:`repro.flowsim.model` — the :class:`FlowModel` protocol,
  :class:`PathParams` (a scenario projected onto the analytical tier)
  and :class:`FlowEstimate` (per-flow FCT/loss outputs);
* :mod:`repro.flowsim.csa00` — the CSA00 closed-form FCT structure;
* :mod:`repro.flowsim.suss_term` — SUSS's compressed slow start as a
  growth-schedule override;
* :mod:`repro.flowsim.driver` — memoised fleet driver (millions of
  flows per second) over `repro.workloads` size/arrival distributions;
* :mod:`repro.flowsim.crossval` — packet-vs-analytical agreement
  harness backing the golden tolerance suite.
"""

from repro._lazy import lazy_exports

# Eager for their side effect: each module registers its model in
# ``repro.flowsim.model.MODELS``, which ``create_model`` /
# ``available_models`` read, whichever ``repro.flowsim`` module a caller
# imports first.
from repro.flowsim import csa00 as _csa00          # noqa: F401 (registers)
from repro.flowsim import suss_term as _suss_term  # noqa: F401 (registers)

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "FleetResult": "driver",
    "FlowEstimate": "model",
    "FlowModel": "model",
    "PathParams": "model",
    "SweepConfig": "driver",
    "SweepResult": "driver",
    "available_models": "model",
    "create_model": "model",
    "estimate_fleet": "driver",
    "poisson_arrivals": "driver",
    "run_sweep": "driver",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
