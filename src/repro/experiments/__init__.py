"""Experiment harnesses — one module per paper table/figure.

========  =====================================================
Module    Reproduces
========  =====================================================
fig01_motivation        Fig. 1 (slow-start under-utilisation)
fig02_competition       Fig. 2 (new flow vs established flows)
fig09_cwnd_rtt          Fig. 9 (cwnd/RTT dynamics)
fig10_delivered         Fig. 10 (delivered data over time)
fig11_12_fct            Figs. 11-12 (FCT vs size, Tokyo scenarios)
fig13_large_flow        Fig. 13 (no impact on large flows)
fig14_loss              Fig. 14 (loss vs flow size)
fig15_fairness          Fig. 15 (Jain fairness grid)
fig16_stability_trace   Fig. 16 (stability trace)
table1_stability        Table 1 (stability grid)
fig17_18_all_scenarios  Figs. 17-18 (28-scenario matrix)
ablation_kmax           Appendix A (generalised SUSS)
ablation_btlbw          Appendix B (BtlBw variation)
ext_related_work        Extension: Section-2 schemes head-to-head
ablation_aqm            Extension: CoDel bottleneck
ablation_delack         Extension: delayed-ACK receiver
========  =====================================================
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "FlowResult": "runner",
    "LocalRun": "runner",
    "fct_summary": "runner",
    "loss_rate_summary": "runner",
    "run_flow_campaign": "runner",
    "run_local_testbed": "runner",
    "run_single_flow": "runner",
    "sweep_summaries": "runner",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
