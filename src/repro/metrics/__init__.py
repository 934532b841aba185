"""Measurement and aggregation: flow series, fairness, summaries."""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "QueueMonitor": "queuemon",
    "FlowCollector": "collector",
    "FlowTrace": "collector",
    "fairness_over_time": "fairness",
    "jain_index": "fairness",
    "Summary": "summary",
    "improvement": "summary",
    "summarize": "summary",
    "TimeSeries": "timeseries",
    "write_multi_timeseries": "timeseries",
    "write_timeseries": "timeseries",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
