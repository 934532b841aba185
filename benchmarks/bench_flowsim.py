"""Benchmark: the analytical fidelity tier's fleet throughput.

The flowsim subsystem's reason to exist is scale — modelling fleets the
packet tier cannot touch.  This benchmark times the standard 10^5-flow
±SUSS sweep — the body ``repro validate --perf`` gates as
``flowsim_fleet_throughput`` (:func:`repro.validate.baseline.bench_flowsim_fleet`)
— and asserts the subsystem's headline promise: at least 10^5 modelled
flows per second.
"""

import time

from conftest import iterations, run_once

from repro.flowsim.model import PathParams
from repro.validate.baseline import bench_flowsim_fleet

#: the acceptance floor: modelled flows per wall-clock second.
MIN_FLOWS_PER_SEC = 100_000


def test_flowsim_fleet_throughput(benchmark):
    """10^5 campus flows through both models, memoised driver."""
    flows = iterations(100_000, 1_000_000)
    start = time.perf_counter()
    result = run_once(benchmark, bench_flowsim_fleet, flows)
    elapsed = time.perf_counter() - start
    modelled = sum(f.n_flows for f in result.fleets.values())
    assert modelled == 2 * flows
    assert modelled / elapsed >= MIN_FLOWS_PER_SEC, (
        f"flowsim modelled only {modelled / elapsed:,.0f} flows/sec "
        f"(floor {MIN_FLOWS_PER_SEC:,})")
    # The sweep's headline direction must match the packet tier's
    # Fig. 11/12 claim: SUSS never slows the fleet down.
    assert result.improvement() >= 0.0


def test_flowsim_single_estimate(benchmark):
    """Closed-form cost of one uncached model evaluation."""
    from repro.flowsim.model import create_model

    path = PathParams(rtt=0.1, btl_bw=12_500_000)
    model = create_model("csa00+suss")

    def estimate_range():
        return [model.estimate(size, path)
                for size in range(10_000, 1_010_000, 10_000)]

    estimates = run_once(benchmark, estimate_range)
    assert len(estimates) == 100
