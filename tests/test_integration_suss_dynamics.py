"""Integration tests: SUSS round dynamics against the paper's Fig. 4-6.

On an ideal large-BDP path every early round satisfies Conditions 1-2, so
the window sequence should follow the paper's accelerated example:
``cwnd: iw -> 4iw -> 16iw -> ...`` with the blue (clocked) part doubling
per round.
"""

import pytest

from repro.cc import create

from tests.helpers import MSS, make_transfer


def ideal_bench(size=12_000 * MSS):
    """1 Gbit/s, 200 ms: BDP ~= 17k segments, conditions always hold."""
    return make_transfer(cc="cubic+suss", size=size, rate=125_000_000,
                         rtt=0.2, buffer_bdp=1.0)


class TestFig6Dynamics:
    @pytest.fixture(scope="class")
    def bench(self):
        bench = ideal_bench()
        cc = bench.cc
        bench.round_cwnds = {}
        orig = cc.on_round_start

        def wrapped(now, idx):
            bench.round_cwnds[idx] = cc.cwnd
            orig(now, idx)

        cc.on_round_start = wrapped
        return bench.run()

    def test_every_early_round_quadruples(self, bench):
        growth = dict(bench.cc.growth_history)
        assert growth[2] == 4
        assert growth[3] == 4
        assert growth[4] == 4

    def test_cwnd_sequence_follows_fig4(self, bench):
        """cwnd at round starts: iw, 4iw, 16iw, 64iw (G=4 throughout)."""
        cwnds = bench.round_cwnds
        iw = 10 * MSS
        assert cwnds[2] == pytest.approx(1 * iw, rel=0.05)
        assert cwnds[3] == pytest.approx(4 * iw, rel=0.10)
        assert cwnds[4] == pytest.approx(16 * iw, rel=0.10)
        assert cwnds[5] == pytest.approx(64 * iw, rel=0.15)

    def test_no_loss_on_ideal_path(self, bench):
        assert bench.drops == 0
        assert bench.sender.retransmissions == 0

    def test_acceleration_beats_doubling_exponent(self, bench):
        """Data delivered grows ~4x per round instead of 2x: the flow
        finishes in roughly half the rounds CUBIC needs."""
        plain = make_transfer(cc="cubic", size=12_000 * MSS,
                              rate=125_000_000, rtt=0.2,
                              buffer_bdp=1.0).run()
        assert bench.sender.round_index < plain.sender.round_index
        assert bench.transfer.fct < plain.transfer.fct * 0.75


class TestBlueTrainStructure:
    def test_blue_part_doubles_per_round(self):
        bench = ideal_bench()
        cc = bench.cc
        blues = []
        orig = cc.on_round_start

        def wrapped(now, idx):
            orig(now, idx)
            blues.append(cc._prev_blue_end - cc._prev_blue_start)

        cc.on_round_start = wrapped
        bench.run()
        # Skip the first entry (round 1 = iw); each blue part then doubles
        # while acceleration is active.
        for earlier, later in zip(blues[:3], blues[1:4]):
            assert later == pytest.approx(2 * earlier, rel=0.05)

    def test_plan_guard_positive_on_ideal_path(self):
        bench = ideal_bench().run()
        assert bench.cc.last_plan is not None
        assert bench.cc.last_plan.guard > 0


class TestDeterminism:
    def test_identical_runs_identical_results(self):
        results = []
        for _ in range(2):
            bench = ideal_bench(size=3000 * MSS).run()
            results.append((bench.transfer.fct,
                            bench.sender.data_packets_sent,
                            tuple(bench.cc.growth_history)))
        assert results[0] == results[1]
