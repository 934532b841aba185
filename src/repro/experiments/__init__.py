"""Experiment harnesses — one module per paper table/figure.

``python -m repro experiment <name>`` is the one way to regenerate an
artefact: each module's ``run(...)`` returns results and prints nothing,
and its ``format_report(results)`` renders them.

======================  ============  =====================================
Module                  Name          Reproduces
======================  ============  =====================================
fig01_motivation        fig01         Fig. 1 (slow-start under-utilisation)
fig02_competition       fig02         Fig. 2 (new flow vs established flows)
fig09_cwnd_rtt          fig09         Fig. 9 (cwnd/RTT dynamics)
fig10_delivered         fig10         Fig. 10 (delivered data over time)
fig11_12_fct            fig11         Figs. 11-12 (FCT vs size, Tokyo)
fig13_large_flow        fig13         Fig. 13 (no impact on large flows)
fig14_loss              fig14         Fig. 14 (loss vs flow size)
fig15_fairness          fig15         Fig. 15 (Jain fairness grid)
fig16_stability_trace   fig16         Fig. 16 (stability trace)
table1_stability        table1        Table 1 (stability grid)
fig17_18_all_scenarios  fig18         Figs. 17-18 (28-scenario matrix)
topo_suite              topo          Extension: topogen scenario classes
ablation_kmax           kmax          Appendix A (generalised SUSS)
ablation_btlbw          btlbw         Appendix B (BtlBw variation)
ablation_aqm            aqm           Extension: CoDel bottleneck
ablation_delack         delack        Extension: delayed-ACK receiver
ext_related_work        related-work  Extension: Section-2 schemes
ext_burstiness          burstiness    Extension: ramp queue pressure
ext_crosstraffic        crosstraffic  Extension: Poisson cross traffic
ext_traffic_mix         traffic-mix   Extension: campus flow-size mix
ext_bbr_suss            bbr-suss      Extension: SUSS on BBR (Section 7)
======================  ============  =====================================
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
