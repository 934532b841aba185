"""Observability layer: structured tracing, run telemetry, profiling.

``repro.obs`` sits at the bottom of the layer DAG (beside
``repro.analysis``) so the engine, network substrate, TCP stack, and
congestion controls can all emit into it without inverting any
dependency.  See DESIGN.md §7 for the record schema, the sink protocol,
and the overhead contract.
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "ALL_KINDS": "records",
    "DigestSink": "sinks",
    "Divergence": "golden",
    "EventProfiler": "profile",
    "JobSpan": "runtime",
    "JsonlSink": "sinks",
    "MemorySink": "sinks",
    "Observability": "tracer",
    "RingBufferSink": "sinks",
    "RunLedger": "ledger",
    "RunTelemetry": "runtime",
    "TeeSink": "sinks",
    "TraceRecord": "records",
    "TraceSink": "sinks",
    "Tracer": "tracer",
    "add_engine_events": "runtime",
    "add_flows_modelled": "runtime",
    "build_ledger": "ledger",
    "digest_lines": "golden",
    "first_divergence": "golden",
    "load_digests": "golden",
    "load_ledger": "ledger",
    "load_stream": "golden",
    "parse_kinds": "records",
    "record_lines": "golden",
    "resource_delta": "runtime",
    "sample_resources": "runtime",
    "save_golden": "golden",
    "trace_digest": "golden",
    "tracing": "tracer",
    "write_ledger": "ledger",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
