"""Measurement and aggregation: flow series, fairness, summaries."""

from repro.metrics.collector import FlowCollector, FlowTrace
from repro.metrics.fairness import fairness_over_time, jain_index
from repro.metrics.queuemon import QueueMonitor
from repro.metrics.summary import (
    Summary,
    improvement,
    summarize,
)
from repro.metrics.timeseries import (
    TimeSeries,
    write_multi_timeseries,
    write_timeseries,
)

__all__ = [
    "QueueMonitor",
    "FlowCollector",
    "FlowTrace",
    "fairness_over_time",
    "jain_index",
    "Summary",
    "improvement",
    "summarize",
    "TimeSeries",
    "write_multi_timeseries",
    "write_timeseries",
]
