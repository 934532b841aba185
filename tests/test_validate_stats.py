"""Tests for repro.validate.stats — pure-stdlib estimators."""

import random

import pytest

from repro.validate.stats import (
    bootstrap_ci_bca,
    cliffs_delta,
    mann_whitney_u,
    normal_ppf,
    permutation_test,
)


class TestBootstrapBca:
    def test_single_arm_mean(self):
        rng = random.Random(1)
        samples = [rng.gauss(10.0, 1.0) for _ in range(40)]
        lo, hi = bootstrap_ci_bca(
            [samples], lambda a: sum(a) / len(a), random.Random(2))
        assert lo < sum(samples) / len(samples) < hi
        assert hi - lo < 1.5

    def test_two_arm_relative_effect(self):
        baseline = [10.0, 10.5, 9.5, 10.2, 9.8]
        treatment = [7.0, 7.4, 6.6, 7.2, 6.8]

        def effect(b, t):
            mb, mt = sum(b) / len(b), sum(t) / len(t)
            return (mb - mt) / mb

        lo, hi = bootstrap_ci_bca([baseline, treatment], effect,
                                  random.Random(3))
        assert 0.2 < lo < 0.3 < hi < 0.4

    def test_deterministic_given_seed(self):
        arms = [[1.0, 2.0, 3.0, 4.0], [2.0, 3.0, 4.0, 5.0]]
        stat = lambda a, b: sum(b) / len(b) - sum(a) / len(a)
        ci1 = bootstrap_ci_bca(arms, stat, random.Random(7))
        ci2 = bootstrap_ci_bca(arms, stat, random.Random(7))
        assert ci1 == ci2

    def test_degenerate_distribution_gives_point_interval(self):
        # Seed-invariant experiments produce identical samples per arm.
        lo, hi = bootstrap_ci_bca(
            [[3.0, 3.0, 3.0], [1.0, 1.0, 1.0]],
            lambda a, b: sum(a) / len(a) - sum(b) / len(b),
            random.Random(4))
        assert (lo, hi) == (2.0, 2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            bootstrap_ci_bca([[]], lambda a: 0.0, random.Random(0))
        with pytest.raises(ValueError):
            bootstrap_ci_bca([[1.0]], lambda a: 0.0, random.Random(0),
                             n_resamples=5)
        with pytest.raises(ValueError):  # the BCa quantile's domain
            normal_ppf(1.0)


class TestMannWhitney:
    def test_clean_separation_small_n(self):
        # 3-vs-3 with full separation: the quick validation mode relies
        # on this clearing alpha = 0.05.
        result = mann_whitney_u([1.0, 1.1, 1.2], [2.0, 2.1, 2.2],
                                alternative="less")
        assert result.p_value < 0.05

    def test_u_statistic_value(self):
        # a entirely below b: U_a = 0; entirely above: U_a = n*m.
        assert mann_whitney_u([1, 2], [3, 4]).u == 0.0
        assert mann_whitney_u([3, 4], [1, 2]).u == 4.0

    def test_all_tied_is_p_one(self):
        result = mann_whitney_u([2.0, 2.0], [2.0, 2.0])
        assert result.p_value == 1.0
        assert result.z == 0.0

    def test_two_sided_larger_than_one_sided(self):
        a, b = [1.0, 1.5, 2.0, 2.5], [3.0, 3.5, 4.0, 4.5]
        one = mann_whitney_u(a, b, alternative="less").p_value
        two = mann_whitney_u(a, b, alternative="two-sided").p_value
        assert one < two

    def test_validation(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])
        with pytest.raises(ValueError):
            mann_whitney_u([1.0], [1.0], alternative="sideways")


class TestPermutationTest:
    def test_detects_separation(self):
        p = permutation_test([1.0, 1.2, 1.1, 0.9], [5.0, 5.2, 5.1, 4.9],
                             random.Random(5), alternative="two-sided")
        assert p < 0.05

    def test_identical_samples_not_significant(self):
        p = permutation_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0],
                             random.Random(6))
        assert p > 0.5

    def test_deterministic_given_seed(self):
        a, b = [1.0, 2.0, 4.0], [2.0, 3.0, 5.0]
        p1 = permutation_test(a, b, random.Random(8))
        p2 = permutation_test(a, b, random.Random(8))
        assert p1 == p2

    def test_never_exactly_zero(self):
        p = permutation_test([0.0] * 5, [100.0] * 5, random.Random(9),
                             n_resamples=100)
        assert p > 0.0


class TestCliffsDelta:
    def test_full_separation(self):
        assert cliffs_delta([1, 2, 3], [4, 5, 6]) == -1.0
        assert cliffs_delta([4, 5, 6], [1, 2, 3]) == 1.0

    def test_identical_is_zero(self):
        assert cliffs_delta([1, 2], [1, 2]) == 0.0

    def test_partial_overlap(self):
        assert cliffs_delta([1, 3], [2, 4]) == pytest.approx(-0.5)
