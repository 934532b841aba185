"""Tests for the vectorised fleet driver and sweep machinery."""

import gc
import random
import re
import sys
import tracemalloc
from array import array

import pytest

from repro.flowsim.driver import (
    FleetResult,
    SweepConfig,
    estimate_fleet,
    fleet_to_value,
    poisson_arrivals,
    run_sweep,
    sweep_to_value,
)
from repro.flowsim.model import PathParams, create_model
from repro.obs.records import FLOWSIM_FLOW
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Observability, Tracer
from repro.workloads.scenarios import MBPS

PATH = PathParams(rtt=0.04, btl_bw=20.0 * MBPS)


class TestPoissonArrivals:
    def test_monotone_nonnegative(self):
        times = poisson_arrivals(200, 1000.0, random.Random(7))
        assert type(times) is array and times.typecode == "d"
        assert len(times) == 200
        assert times[0] > 0.0
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_deterministic_per_seed(self):
        assert (poisson_arrivals(50, 10.0, random.Random(3))
                == poisson_arrivals(50, 10.0, random.Random(3)))

    def test_mean_gap_tracks_rate(self):
        times = poisson_arrivals(5000, 100.0, random.Random(1))
        assert times[-1] / 5000 == pytest.approx(1 / 100.0, rel=0.1)

    def test_running_sum_of_the_gaps(self):
        """The ``t += expovariate(rate)`` loop, value for value, and the
        rng left where that loop leaves it."""
        a, b = random.Random(5), random.Random(5)
        t, loop = 0.0, []
        for _ in range(300):
            t += b.expovariate(40.0)
            loop.append(t)
        assert poisson_arrivals(300, 40.0, a).tolist() == loop
        assert a.random() == b.random()

    def test_validation(self):
        with pytest.raises(ValueError):
            poisson_arrivals(-1, 1.0, random.Random(0))
        with pytest.raises(ValueError):
            poisson_arrivals(1, 0.0, random.Random(0))


class TestEstimateFleet:
    def test_memoises_by_segment_count(self):
        model = create_model("csa00")
        # 1000 flows, all quantising to one of two segment counts.
        sizes = [1000, 1448, 2000, 2896] * 250
        fleet = estimate_fleet(model, sizes, PATH)
        assert fleet.n_flows == 1000
        assert fleet.distinct_segment_counts == 2
        assert fleet.total_bytes == sum(sizes)
        assert fleet.total_segments == sum(-(-s // PATH.mss) for s in sizes)

    def test_memoised_fcts_match_direct_estimates(self):
        model = create_model("csa00+suss")
        sizes = [10_000, 60_000, 10_000, 250_000]
        fleet = estimate_fleet(model, sizes, PATH)
        direct = [model.estimate(s, PATH).fct for s in sizes]
        assert fleet.fcts == direct

    def test_mismatched_arrivals_rejected(self):
        with pytest.raises(ValueError):
            estimate_fleet(create_model("csa00"), [1000, 2000], PATH,
                           arrivals=[0.0])

    def test_obs_emits_one_record_per_flow(self):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(sink))
        sizes = [10_000, 60_000, 250_000]
        arrivals = [0.1, 0.2, 0.3]
        fleet = estimate_fleet(create_model("csa00+suss"), sizes, PATH,
                               arrivals=arrivals, obs=obs, flow_base=5)
        obs.close()
        records = [r for r in sink.records if r.kind == FLOWSIM_FLOW]
        assert len(records) == 3
        assert [r.flow for r in records] == [5, 6, 7]
        assert [r.time for r in records] == arrivals
        assert [r.fields["fct"] for r in records] == fleet.fcts
        assert all(r.fields["model"] == "csa00+suss" for r in records)

    def test_empty_fleet(self):
        fleet = estimate_fleet(create_model("csa00"), [], PATH)
        assert fleet.n_flows == 0
        assert fleet.mean_rounds_saved == 0.0

    @pytest.mark.parametrize("bad", [1.5, 10 ** 20, -10 ** 20, "1000"])
    def test_size_the_column_cannot_hold_is_named(self, bad):
        """A fractional size once gave a float ``total_segments`` and
        10^20 B a 4e13-second FCT; both are refused, by value."""
        with pytest.raises(ValueError, match=re.escape(f"{bad!r} is not")):
            estimate_fleet(create_model("csa00"), [1000, bad, 2000], PATH)

    def test_first_unholdable_size_is_the_one_named(self):
        with pytest.raises(ValueError, match=r"flow size 2\.5 "):
            estimate_fleet(create_model("csa00"), [1000, 2.5, 10 ** 20], PATH)

    @pytest.mark.parametrize("bad", [0, -5])
    def test_non_positive_size_is_the_models_error(self, bad):
        with pytest.raises(ValueError, match="size_bytes must be positive"):
            estimate_fleet(create_model("csa00"), [1000, bad], PATH)


class TestSweep:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(path=PATH, flows=0)
        with pytest.raises(ValueError):
            SweepConfig(path=PATH, models=())

    def test_same_seed_reproduces_exactly(self):
        config = SweepConfig(path=PATH, flows=500, seed=9)
        a, b = run_sweep(config), run_sweep(config)
        for name in config.models:
            assert a.fleets[name].fcts == b.fleets[name].fcts
            assert a.fleets[name].sizes == b.fleets[name].sizes

    def test_models_are_paired_on_identical_draws(self):
        result = run_sweep(SweepConfig(path=PATH, flows=300, seed=2))
        assert (result.fleets["csa00"].sizes
                == result.fleets["csa00+suss"].sizes)

    def test_suss_improvement_nonnegative(self):
        result = run_sweep(SweepConfig(path=PATH, flows=2000, seed=1))
        assert result.improvement() >= 0.0
        # paired draws: SUSS never slower on any individual flow.
        base = result.fleets["csa00"].fcts
        suss = result.fleets["csa00+suss"].fcts
        assert all(s <= b + 1e-12 for b, s in zip(base, suss))

    def test_different_seeds_differ(self):
        a = run_sweep(SweepConfig(path=PATH, flows=200, seed=1))
        b = run_sweep(SweepConfig(path=PATH, flows=200, seed=2))
        assert a.fleets["csa00"].sizes != b.fleets["csa00"].sizes

    def test_obs_stamps_arrival_timeline(self):
        sink = MemorySink()
        obs = Observability(tracer=Tracer(sink))
        run_sweep(SweepConfig(path=PATH, flows=50, seed=4,
                              models=("csa00",)), obs=obs)
        obs.close()
        times = [r.time for r in sink.records
                 if r.kind == FLOWSIM_FLOW]
        assert len(times) == 50
        assert all(b > a for a, b in zip(times, times[1:]))


class TestSweepMemory:
    def test_retained_bytes_are_the_columns(self):
        """What a sweep's result keeps alive is its columns: 8 B of
        ``array('q')`` size per flow, shared by every model, and one 8 B
        pointer per flow per model in each ``fcts`` list (the floats it
        points at are one per distinct segment count).  Slack: 1/8 for
        list and array growth, one float per distinct count per model,
        and 64 KiB for the result's own objects.  A ``list`` of sizes
        costs 40 B per flow and breaks the bound."""
        config = SweepConfig(path=PATH, flows=20_000, seed=1)
        run_sweep(SweepConfig(path=PATH, flows=100, seed=1))  # warm
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run_sweep(config)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        models = len(config.models)
        distinct = result.fleets["csa00"].distinct_segment_counts
        columns = config.flows * (8 + 8 * models)
        bound = (columns * 9 // 8
                 + distinct * models * sys.getsizeof(1.0) + 64 * 1024)
        assert retained <= bound, (retained / config.flows, bound)


class TestSweepValues:
    def test_fleet_value_schema(self):
        result = run_sweep(SweepConfig(path=PATH, flows=100, seed=1))
        value = fleet_to_value(result.fleets["csa00"])
        summary = result.fleets["csa00"].fct_summary()
        assert value["n"] == 100
        assert value["fct_mean"] == summary.mean
        assert value["fct_median"] == summary.median
        assert value["fct_p95"] == summary.p95

    def test_sweep_value_includes_improvement_only_when_paired(self):
        both = sweep_to_value(run_sweep(SweepConfig(path=PATH, flows=50)))
        assert "improvement" in both
        solo = sweep_to_value(run_sweep(
            SweepConfig(path=PATH, flows=50, models=("csa00",))))
        assert "improvement" not in solo


class TestFleetResult:
    def test_mean_rounds_saved(self):
        fleet = FleetResult(model="m", n_flows=4, fcts=[1.0] * 4,
                            sizes=[1] * 4, rounds_saved_total=6)
        assert fleet.mean_rounds_saved == 1.5
