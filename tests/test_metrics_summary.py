"""Unit tests for repro.metrics.summary."""

import pytest

from repro.metrics.summary import Summary, improvement, percentile, summarize


class TestSummarize:
    def test_single_sample(self):
        s = summarize([2.0])
        assert s == Summary(n=1, mean=2.0, std=0.0, minimum=2.0,
                            maximum=2.0, median=2.0, p95=2.0)

    def test_sample_std_uses_n_minus_one(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.std == pytest.approx(1.0)
        assert (s.minimum, s.maximum) == (1.0, 3.0)

    def test_median_and_p95(self):
        s = summarize(list(range(1, 101)))
        assert s.median == pytest.approx(50.5)
        assert s.p95 == pytest.approx(95.05)

    def test_median_interpolates_even_n(self):
        assert summarize([1.0, 2.0, 3.0, 4.0]).median == pytest.approx(2.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_str_format(self):
        assert "n=3" in str(summarize([1.0, 2.0, 3.0]))


class TestPercentile:
    def test_endpoints(self):
        samples = [3.0, 1.0, 2.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 100.0) == 3.0

    def test_linear_interpolation(self):
        assert percentile([10.0, 20.0], 50.0) == pytest.approx(15.0)
        assert percentile([0.0, 10.0, 20.0], 25.0) == pytest.approx(5.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)
        with pytest.raises(ValueError):
            percentile([1.0], -1.0)
        with pytest.raises(ValueError):
            percentile([1.0], 100.5)


class TestImprovement:
    def test_positive_when_smaller(self):
        assert improvement(10.0, 8.0) == pytest.approx(0.2)

    def test_negative_when_regressed(self):
        assert improvement(10.0, 12.0) == pytest.approx(-0.2)

    def test_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            improvement(0.0, 1.0)


class TestEmptySummary:
    def test_direct_summarize_still_rejects_empty(self):
        # no samples is an error, never a NaN-filled summary
        with pytest.raises(ValueError):
            summarize([])
