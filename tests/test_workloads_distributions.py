"""Tests for flow-size distributions and the traffic-mix experiment."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.experiments import ext_traffic_mix
from repro.workloads.distributions import (
    CAMPUS_FLOW_CDF,
    EmpiricalCdf,
    heavy_tailed_flow_sizes,
    web_object_sizes,
)


class TestWebObjects:
    def test_sizes_positive_and_bounded(self):
        sizes = web_object_sizes(500, random.Random(1), max_size=10 ** 6)
        assert all(100 <= s <= 10 ** 6 for s in sizes)

    def test_median_near_parameter(self):
        sizes = sorted(web_object_sizes(4000, random.Random(2),
                                        median=25_000))
        assert sizes[len(sizes) // 2] == pytest.approx(25_000, rel=0.3)

    def test_deterministic(self):
        a = web_object_sizes(50, random.Random(3))
        b = web_object_sizes(50, random.Random(3))
        assert a == b

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            web_object_sizes(0, random.Random(1))


class TestHeavyTailed:
    def test_bounds_respected(self):
        sizes = heavy_tailed_flow_sizes(1000, random.Random(4),
                                        minimum=10_000, maximum=10 ** 7)
        assert all(10_000 <= s <= 10 ** 7 for s in sizes)

    def test_mice_dominate(self):
        sizes = heavy_tailed_flow_sizes(3000, random.Random(5))
        small = sum(1 for s in sizes if s < 100_000)
        assert small / len(sizes) > 0.5

    def test_elephants_exist(self):
        sizes = heavy_tailed_flow_sizes(3000, random.Random(6))
        assert max(sizes) > 20 * min(sizes)

    def test_validation(self):
        rng = random.Random(0)
        with pytest.raises(ValueError):
            heavy_tailed_flow_sizes(10, rng, minimum=100, maximum=100)
        with pytest.raises(ValueError):
            heavy_tailed_flow_sizes(10, rng, alpha=0)

    def test_same_seed_identical_draws(self):
        a = heavy_tailed_flow_sizes(200, random.Random(11))
        b = heavy_tailed_flow_sizes(200, random.Random(11))
        assert a == b

    def test_different_seeds_differ(self):
        a = heavy_tailed_flow_sizes(200, random.Random(11))
        b = heavy_tailed_flow_sizes(200, random.Random(12))
        assert a != b

    def test_boundary_clamping(self):
        # A tiny span forces the Pareto tail against both clamps.
        sizes = heavy_tailed_flow_sizes(2000, random.Random(13),
                                        minimum=1_000, maximum=1_500)
        assert min(sizes) >= 1_000
        assert max(sizes) <= 1_500


class TestEmpiricalCdf:
    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([(1, 0.0)])
        with pytest.raises(ValueError):
            EmpiricalCdf([(1, 0.1), (2, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalCdf([(1, 0.0), (2, 0.9)])
        with pytest.raises(ValueError):
            EmpiricalCdf([(5, 0.0), (2, 1.0)])

    def test_rejects_fewer_than_two_breakpoints(self):
        with pytest.raises(ValueError):
            EmpiricalCdf([])
        with pytest.raises(ValueError):
            EmpiricalCdf([(1, 0.0)])

    def test_same_seed_identical_draws(self):
        cdf = EmpiricalCdf([(10, 0.0), (100, 0.5), (1000, 1.0)])
        a = [cdf.sample(random.Random(21)) for _ in range(100)]
        b = [cdf.sample(random.Random(21)) for _ in range(100)]
        assert a == b
        # One shared stream across calls is equally reproducible.
        rng1, rng2 = random.Random(22), random.Random(22)
        assert cdf.sample_sizes(100, rng1) == cdf.sample_sizes(100, rng2)

    def test_samples_within_support(self):
        cdf = EmpiricalCdf([(10, 0.0), (100, 0.5), (1000, 1.0)])
        rng = random.Random(7)
        samples = [cdf.sample(rng) for _ in range(1000)]
        assert all(10 <= s <= 1000 for s in samples)

    def test_median_matches_breakpoint(self):
        cdf = EmpiricalCdf([(10, 0.0), (100, 0.5), (1000, 1.0)])
        rng = random.Random(8)
        samples = sorted(cdf.sample(rng) for _ in range(5000))
        assert samples[len(samples) // 2] == pytest.approx(100, rel=0.25)

    def test_campus_cdf_shape(self):
        """Half the flows are small; the tail reaches the elephants."""
        rng = random.Random(9)
        sizes = CAMPUS_FLOW_CDF.sample_sizes(5000, rng)
        small = sum(1 for s in sizes if s <= 100_000)
        assert 0.55 <= small / len(sizes) <= 0.85
        assert max(sizes) > 10_000_000

    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_sample_always_in_range(self, seed):
        rng = random.Random(seed)
        value = CAMPUS_FLOW_CDF.sample(rng)
        assert 1_000 <= value <= 100_000_000


class TestTrafficMixExperiment:
    def test_mix_mostly_improves(self):
        result = ext_traffic_mix.run(n_flows=12, max_size=5_000_000)
        assert result.mean_improvement > 0.03
        assert 0.35 < result.fraction_improved <= 1.0
        assert result.percentile(5) > -0.15  # no pathological tail
        assert "traffic mix" in ext_traffic_mix.format_report(result)

    def test_percentiles_ordered(self):
        result = ext_traffic_mix.run(n_flows=10, max_size=3_000_000)
        assert result.percentile(10) <= result.percentile(90)


class TestSampleMany:
    """The batched float sampler, and the integer one that mirrors it."""

    @given(st.integers(min_value=0, max_value=2 ** 31),
           st.integers(min_value=0, max_value=400))
    def test_batched_equals_one_at_a_time(self, seed, n):
        """``sample_many(n)`` consumes the rng stream exactly like ``n``
        successive ``sample()`` calls: same draws, same order."""
        batched = CAMPUS_FLOW_CDF.sample_many(n, random.Random(seed))
        serial_rng = random.Random(seed)
        serial = [CAMPUS_FLOW_CDF.sample(serial_rng) for _ in range(n)]
        assert batched == serial

    @given(st.integers(min_value=0, max_value=2 ** 31))
    def test_stream_position_identical_after_batch(self, seed):
        """Downstream draws after a batch match downstream draws after
        the equivalent serial sampling — no hidden rng consumption."""
        a, b = random.Random(seed), random.Random(seed)
        CAMPUS_FLOW_CDF.sample_many(37, a)
        for _ in range(37):
            CAMPUS_FLOW_CDF.sample(b)
        assert a.random() == b.random()

    def test_sample_sizes_equal_truncated_sample_many(self):
        sizes = CAMPUS_FLOW_CDF.sample_sizes(100, random.Random(5))
        values = CAMPUS_FLOW_CDF.sample_many(100, random.Random(5))
        assert sizes == [max(int(v), 1) for v in values]

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            CAMPUS_FLOW_CDF.sample_many(-1, random.Random(0))


class TestSampleFlowSizes:
    def test_named_distributions_dispatch(self):
        from repro.workloads.distributions import (
            SIZE_SAMPLERS,
            sample_flow_sizes,
        )
        for name in SIZE_SAMPLERS:
            sizes = sample_flow_sizes(name, 50, random.Random(2))
            assert len(sizes) == 50
            assert all(isinstance(s, int) and s >= 1 for s in sizes)

    def test_unknown_name_lists_known(self):
        from repro.workloads.distributions import sample_flow_sizes
        with pytest.raises(KeyError, match="campus"):
            sample_flow_sizes("pareto", 10, random.Random(0))
