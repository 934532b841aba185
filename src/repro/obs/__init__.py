"""Observability layer: structured tracing, run telemetry, profiling.

``repro.obs`` sits at the bottom of the layer DAG (beside
``repro.analysis``) so the engine, network substrate, TCP stack, and
congestion controls can all emit into it without inverting any
dependency.  See DESIGN.md §7 for the record schema, the sink protocol,
and the overhead contract.
"""

from repro.obs.golden import (
    Divergence,
    digest_lines,
    first_divergence,
    load_digests,
    load_stream,
    record_lines,
    save_golden,
    trace_digest,
)
from repro.obs.export import MetricsServer, render_openmetrics, render_top
from repro.obs.ledger import RunLedger, build_ledger, load_ledger, write_ledger
from repro.obs.profile import EventProfiler
from repro.obs.records import ALL_KINDS, TraceRecord, parse_kinds
from repro.obs.runtime import (
    JobSpan,
    RunTelemetry,
    add_engine_events,
    add_flows_modelled,
    resource_delta,
    sample_resources,
)
from repro.obs.sinks import (
    CsvTraceSink,
    DigestSink,
    JsonlSink,
    MemorySink,
    RingBufferSink,
    TeeSink,
    TraceSink,
)
from repro.obs.tracer import Observability, Tracer, from_env, tracing

__all__ = [
    "ALL_KINDS",
    "CsvTraceSink",
    "DigestSink",
    "Divergence",
    "EventProfiler",
    "JobSpan",
    "JsonlSink",
    "MemorySink",
    "MetricsServer",
    "Observability",
    "RingBufferSink",
    "RunLedger",
    "RunTelemetry",
    "TeeSink",
    "TraceRecord",
    "TraceSink",
    "Tracer",
    "add_engine_events",
    "add_flows_modelled",
    "build_ledger",
    "digest_lines",
    "first_divergence",
    "from_env",
    "load_digests",
    "load_ledger",
    "load_stream",
    "parse_kinds",
    "record_lines",
    "render_openmetrics",
    "render_top",
    "resource_delta",
    "sample_resources",
    "save_golden",
    "trace_digest",
    "tracing",
    "write_ledger",
]
