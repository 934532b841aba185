"""Tests for the extension experiments (related work, AQM, delayed ACK,
cross traffic, SUSS on BBR)."""

import pytest

from repro.experiments import (
    ablation_aqm,
    ablation_delack,
    ext_bbr_suss,
    ext_crosstraffic,
    ext_related_work,
)
from repro.workloads import MB, get_scenario


class TestRelatedWork:
    @pytest.fixture(scope="class")
    def rows(self):
        return ext_related_work.run(size=2 * MB, iterations=1)

    def test_all_schemes_all_paths(self, rows):
        assert len(rows) == 2 * len(ext_related_work.SCHEMES)

    def test_suss_wins_constrained_path(self, rows):
        assert ext_related_work.best_scheme(
            rows, "oracle-london/wired-shallow") == "cubic+suss"

    def test_jumpstart_lossy_on_constrained_path(self, rows):
        by = {(r.scenario.name, r.scheme): r for r in rows}
        assert by[("oracle-london/wired-shallow", "jumpstart")].loss.mean \
            > 0.05

    def test_section2_costs(self, rows):
        by = {(r.scenario.name, r.scheme): r for r in rows}
        shallow, clean = "oracle-london/wired-shallow", "google-tokyo/wired"
        # Halfback's redundant copies are retransmissions...
        assert by[(shallow, "halfback")].retransmit_rate > 0.25
        # ...naive pacing disrupts HyStart (slow on the clean path)...
        assert by[(clean, "cubic-spread-iw32")].fct.mean > \
            by[(clean, "cubic+suss")].fct.mean
        # ...and SUSS never loses more than plain CUBIC.
        for scenario in (clean, shallow):
            assert by[(scenario, "cubic+suss")].loss.mean <= \
                by[(scenario, "cubic")].loss.mean + 1e-6

    def test_report_renders(self, rows):
        out = ext_related_work.format_report(rows)
        assert "jumpstart" in out and "cubic+suss" in out


class TestAqm:
    def test_gain_survives_codel(self):
        cells = ablation_aqm.run(size=3 * MB)
        for kind in ("droptail", "codel"):
            assert ablation_aqm.suss_improvement(cells, kind) > 0.05
        # SUSS does not trip CoDel into extra drops.
        by = {(c.queue_kind, c.cc): c for c in cells}
        assert by[("codel", "cubic+suss")].loss_rate <= \
            by[("codel", "cubic")].loss_rate + 0.002
        assert "CoDel" in ablation_aqm.format_report(cells)

    def test_unknown_queue_kind(self):
        with pytest.raises(ValueError):
            ablation_aqm.run(size=1 * MB, queue_kinds=("red",))


class TestDelAck:
    def test_gain_survives_delayed_acks(self):
        cells = ablation_delack.run(size=2 * MB)
        gain_on = ablation_delack.suss_improvement(cells, delayed=True)
        gain_off = ablation_delack.suss_improvement(cells, delayed=False)
        assert gain_on > 0.10
        assert abs(gain_on - gain_off) < 0.15
        assert "delayed ACK" in ablation_delack.format_report(cells)

    def test_delack_cells_complete(self):
        cells = ablation_delack.run(
            size=1 * MB, scenario=get_scenario("google-tokyo", "wifi"))
        assert len(cells) == 4
        assert all(c.fct > 0 for c in cells)


class TestCrossTraffic:
    def test_gain_survives_cross_traffic(self):
        results = ext_crosstraffic.run(size=2 * MB, load=0.3, iterations=1)
        # SUSS still helps the foreground under contention, and the short
        # cross flows are not meaningfully slowed by it.
        assert ext_crosstraffic.suss_improvement(results) > 0.0
        assert ext_crosstraffic.cross_flow_regression(results) < 0.15
        assert "cross traffic" in ext_crosstraffic.format_report(results)


class TestBbrSuss:
    def test_small_consistent_gain(self):
        rows = ext_bbr_suss.run()
        gains = [row.gain for row in rows]
        assert sum(gains) / len(gains) > 0.0
        assert min(gains) > -0.10
        assert "BBR+SUSS" in ext_bbr_suss.format_report(rows)
