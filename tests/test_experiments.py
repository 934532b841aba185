"""Tests for the experiment harnesses (fast, scaled-down configurations).

Each harness is exercised end-to-end with cheap parameters: the assertions
check the *shape* the paper reports, not absolute numbers.
"""

import pytest

from repro.experiments import (
    ablation_btlbw,
    ablation_kmax,
    fig01_motivation,
    fig02_competition,
    fig09_cwnd_rtt,
    fig10_delivered,
    fig11_12_fct,
    fig13_large_flow,
    fig14_loss,
    fig17_18_all_scenarios,
)
from repro.experiments.report import pct, render_series, render_table
from repro.experiments.runner import fct_summary, run_single_flow
from repro.workloads import MB, get_scenario


class TestRunner:
    def test_single_flow_completes(self):
        res = run_single_flow(get_scenario("google-tokyo", "wired"),
                              "cubic", 1 * MB, seed=0)
        assert res.completed and res.fct is not None
        assert res.telemetry is None  # collect=False by default

    def test_collect_gives_series(self):
        res = run_single_flow(get_scenario("google-tokyo", "wired"),
                              "cubic", 1 * MB, seed=0, collect=True)
        assert res.telemetry is not None
        assert not res.telemetry.flow(1).delivered.empty

    def test_fct_summary_seeds_vary_wireless(self):
        s = fct_summary(get_scenario("google-tokyo", "4g"), "cubic",
                        1 * MB, iterations=3)
        assert s.n == 3 and s.mean > 0

    def test_seed_reproducibility(self):
        sc = get_scenario("google-tokyo", "4g")
        a = run_single_flow(sc, "cubic+suss", 1 * MB, seed=5).fct
        b = run_single_flow(sc, "cubic+suss", 1 * MB, seed=5).fct
        assert a == b

    def test_different_seeds_differ_on_wireless(self):
        sc = get_scenario("google-tokyo", "4g")
        a = run_single_flow(sc, "cubic", 1 * MB, seed=1).fct
        b = run_single_flow(sc, "cubic", 1 * MB, seed=2).fct
        assert a != b


class TestReport:
    def test_render_table(self):
        out = render_table(["a", "bb"], [[1, 2.5], ["x", "yy"]], title="T")
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            render_table(["a"], [[1, 2]])

    def test_render_series(self):
        out = render_series("s", [(1, 2.0)], "t", "v")
        assert "s" in out and "2" in out

    def test_pct(self):
        assert pct(0.256) == "+25.6%"
        assert pct(-0.05) == "-5.0%"


class TestFig1:
    def test_slow_start_deficit_positive(self):
        results = fig01_motivation.run(size_bytes=25 * MB)
        assert results["cubic"].theta > 0
        # Early on, slow start delivers well under the optimal line —
        # for BBRv2's startup as much as for CUBIC's.
        for r in results.values():
            assert r.early_deficit > 0.2


class TestFig2:
    def test_bbr_newcomer_converges_first(self):
        results = fig02_competition.run(join_time=6.0, horizon=15.0,
                                        bottleneck_mbps=20.0)
        cubic, bbr = results["cubic"], results["bbr"]
        # The CUBIC newcomer converges far more slowly than BBR's (here
        # not at all within the horizon).
        assert bbr.time_to_fair_share is not None
        assert cubic.time_to_fair_share is None or \
            bbr.time_to_fair_share <= cubic.time_to_fair_share
        assert "Fig. 2" in fig02_competition.format_report(results)


class TestFig9and10:
    @pytest.fixture(scope="class")
    def results9(self):
        return fig09_cwnd_rtt.run(size_bytes=12 * MB)

    def test_suss_ramps_faster(self, results9):
        suss = results9["cubic+suss"]
        plain = results9["cubic"]
        assert suss.time_to_exit_cwnd < plain.time_to_exit_cwnd

    def test_exit_cwnd_similar(self, results9):
        suss = results9["cubic+suss"]
        plain = results9["cubic"]
        assert suss.exit_cwnd == pytest.approx(plain.exit_cwnd, rel=0.6)

    def test_no_rtt_blowup(self, results9):
        assert results9["cubic+suss"].early_rtt_inflation < 2.0

    def test_delivered_ratio_exceeds_one(self):
        results = fig10_delivered.run(size_bytes=12 * MB)
        ratio = fig10_delivered.delivered_ratio_at(results, 1.5)
        assert ratio > 1.2
        assert fig10_delivered.delivered_ratio_at(results, 2.0) > 1.3
        assert "Fig. 10" in fig10_delivered.format_report(results)


class TestFig11:
    def test_sweep_shape(self):
        sweeps = fig11_12_fct.run(links=("wired", "wifi", "4g"),
                                  sizes=(1 * MB, 2 * MB, 8 * MB),
                                  iterations=1)
        assert sweeps["wired"].improvement_at(1 * MB) > 0.15
        for sweep in sweeps.values():
            assert sweep.improvement_at(2 * MB) > 0.0
        # Fig. 12: > 10 % at 2 MB, tapering as flows grow.
        for link in ("wired", "wifi"):
            small = sweeps[link].improvement_at(2 * MB)
            assert small > 0.10
            assert sweeps[link].improvement_at(8 * MB) <= small + 0.10
        report = fig11_12_fct.format_report(sweeps)
        assert "Fig. 11/12" in report


class TestFig13:
    def test_improvement_tapers(self):
        result = fig13_large_flow.run(size_bytes=30 * MB,
                                      milestones_mb=(1, 5, 15, 30))
        assert result.early_improvement > result.late_improvement
        assert result.early_improvement > 0.15
        assert result.total_improvement < result.early_improvement
        assert "Fig. 13" in fig13_large_flow.format_report(result)


class TestFig14:
    def test_suss_does_not_increase_loss(self):
        result = fig14_loss.run(sizes=(2 * MB, 6 * MB), iterations=2)
        for size in result.sizes:
            off = result.loss["cubic"][size].mean
            on = result.loss["cubic+suss"][size].mean
            assert on <= off + 0.002
        assert result.converged()
        assert "Fig. 14" in fig14_loss.format_report(result)

    def test_off_curve_decreases_with_size(self):
        result = fig14_loss.run(sizes=(2 * MB, 16 * MB), iterations=2,
                                schemes=("cubic",))
        small = result.loss["cubic"][2 * MB].mean
        large = result.loss["cubic"][16 * MB].mean
        assert large <= small


class TestFig17_18:
    def test_submatrix_runs(self):
        rows = fig17_18_all_scenarios.run(
            servers=("google-tokyo",), links=("wired", "wifi"),
            sizes=(1 * MB,), iterations=1)
        assert len(rows) == 2
        for row in rows:
            assert row.suss_beats_cubic
        beats_cubic, beats_bbr, total = \
            fig17_18_all_scenarios.win_counts(rows)
        assert total == 2 and beats_cubic == 2
        report = fig17_18_all_scenarios.format_report(rows)
        assert "Fig. 18" in report and "Fig. 17" in report

    def test_all_28_scenarios(self):
        rows = fig17_18_all_scenarios.run(sizes=(2 * MB,), iterations=1)
        beats_cubic, beats_bbr, total = \
            fig17_18_all_scenarios.win_counts(rows)
        # Fig. 18 (paper: 28/28 and 27/28): jittery 4G paths give one
        # seed a little noise.
        assert total == 28
        assert beats_cubic >= 26
        assert beats_bbr >= 20
        # Fig. 17: SUSS never raises CUBIC's loss rate materially.
        for row in rows:
            assert row.loss["cubic+suss"].mean <= \
                row.loss["cubic"].mean + 0.005


class TestAblations:
    def test_kmax_report(self):
        results = ablation_kmax.run(
            scenarios=(get_scenario("google-tokyo", "wired"),),
            size=1 * MB, iterations=1)
        assert results[0].improvement_over_cubic("cubic+suss") > 0
        # Stable path: deeper look-ahead is at least not harmful.
        fct = results[0].fct
        assert fct["cubic+suss-k3"].mean <= fct["cubic+suss"].mean * 1.10
        assert "k_max" in ablation_kmax.format_report(results)

    def test_btlbw_drop_is_safe(self):
        results = ablation_btlbw.run(drop_times=(0.6,), size=3 * MB, seed=1)
        r = results[0]
        # SUSS must not lose meaningfully more than plain CUBIC under a
        # mid-ramp bandwidth drop (Appendix B).
        assert r.loss_regression <= 0.01
        assert r.suss_improvement > -0.10
        assert "Appendix B" in ablation_btlbw.format_report(results)
