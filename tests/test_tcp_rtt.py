"""Unit tests for the RTT estimator's bookkeeping and min-RTT tracking.

The RFC 6298 rules themselves -- initial value, first sample, the
``RTTVAR``-then-``SRTT`` update, floor and cap -- are rows of
``tests/test_tcp_rto_rfc6298.py``.
"""

import pytest
from hypothesis import given, strategies as st

from repro.tcp.rtt import RttEstimator


class TestBasics:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            RttEstimator().update(0.0)

    def test_ewma_converges(self):
        est = RttEstimator()
        for _ in range(200):
            est.update(0.2)
        assert abs(est.srtt - 0.2) < 1e-6

    def test_rto_grows_with_variance(self):
        stable, noisy = RttEstimator(), RttEstimator()
        for i in range(50):
            stable.update(0.2)
            noisy.update(0.2 + (0.15 if i % 2 else -0.15))
        assert noisy.rto > stable.rto

    def test_latest_tracked(self):
        est = RttEstimator()
        est.update(0.3)
        est.update(0.1)
        assert est.latest == 0.1
        assert est.samples == 2


class TestMinRtt:
    def test_min_rtt_tracks_minimum(self):
        est = RttEstimator()
        for s in [0.3, 0.1, 0.2, 0.15]:
            est.update(s)
        assert est.min_rtt == 0.1

    def test_min_rtt_round_recorded(self):
        est = RttEstimator()
        est.update(0.3, round_index=1)
        est.update(0.1, round_index=4)
        est.update(0.2, round_index=6)
        assert est.min_rtt_round == 4

    def test_rounds_since_min_update(self):
        """``r`` for SUSS Condition 2."""
        est = RttEstimator()
        est.update(0.1, round_index=3)
        assert est.rounds_since_min_update(3) == 0
        assert est.rounds_since_min_update(5) == 2

    def test_equal_sample_does_not_update_round(self):
        est = RttEstimator()
        est.update(0.1, round_index=1)
        est.update(0.1, round_index=5)
        assert est.min_rtt_round == 1

    @given(st.lists(st.floats(min_value=1e-4, max_value=10.0,
                              allow_nan=False), min_size=1, max_size=60))
    def test_min_rtt_is_global_minimum(self, samples):
        est = RttEstimator()
        for i, s in enumerate(samples):
            est.update(s, round_index=i)
        assert est.min_rtt == min(samples)
