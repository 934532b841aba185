"""Stream-oriented trace analysis over provenance-stamped records.

The pipeline (`analyze_records`) reconstructs per-flow timelines from
any record stream, segments each flow into congestion-control phases,
classifies retransmissions (genuine / spurious / RTO-driven /
unconfirmed), and runs pluggable anomaly detectors that emit structured
findings.  ``repro analyze`` and ``repro explain`` are the CLI front
ends.
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "ALL_CLASSES": "classify",
    "ALL_PHASES": "phases",
    "SEVERITIES": "findings",
    "AnomalyDetector": "anomalies",
    "CwndCollapseDetector": "anomalies",
    "Finding": "findings",
    "FlowReport": "report",
    "FlowTimeline": "timeline",
    "PacingStallDetector": "anomalies",
    "PhaseSegment": "phases",
    "RetxClassification": "classify",
    "RtoSpikeDetector": "anomalies",
    "SussAbortDetector": "anomalies",
    "TraceAnalysis": "report",
    "analyze_records": "report",
    "build_timelines": "timeline",
    "classify_retransmissions": "classify",
    "default_detectors": "anomalies",
    "load_trace": "report",
    "phase_at": "phases",
    "render_flow": "report",
    "segment_phases": "phases",
    "tally": "classify",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
