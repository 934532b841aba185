"""Micro-benchmarks of the substrate itself (engine and stack throughput).

Unlike the figure/table benchmarks (which run once and print the paper's
rows), these measure raw simulator performance with proper repetition —
useful for catching performance regressions in the event loop or the TCP
hot path.  The workload bodies are the ones the ``repro validate --perf``
gate times (:mod:`repro.validate.baseline`), so both read the same code.
"""

from repro.validate.baseline import bench_download, bench_engine_events


def test_engine_event_throughput(benchmark):
    """Schedule-and-fire cost of the event loop."""
    assert benchmark(bench_engine_events) == 10_000


def test_transfer_packet_throughput(benchmark):
    """End-to-end cost per simulated data packet (2 MB CUBIC download)."""
    assert benchmark(bench_download, "cubic") >= 1400


def test_suss_transfer_throughput(benchmark):
    """Same download with SUSS enabled (accelerated rounds + pacing timers)."""
    assert benchmark(bench_download, "cubic+suss") >= 1400
