"""Tests for SUSS integrated with BBR (the paper's Section-7 future work)."""

import pytest

from repro.cc import create
from repro.cc.bbr import Bbr
from repro.core.suss_bbr import SussBbr

from tests.helpers import MSS, make_transfer


class TestSussBbr:
    def test_registered(self):
        cc = create("bbr+suss")
        assert isinstance(cc, SussBbr)
        assert isinstance(cc, Bbr)

    def test_boosts_on_long_fat_path(self):
        bench = make_transfer(cc="bbr+suss", size=1400 * MSS, rtt=0.2,
                              rate=25_000_000, buffer_bdp=2.0).run()
        assert bench.transfer.completed
        assert bench.cc.boosted_rounds >= 1

    def test_faster_than_plain_bbr_for_small_flows(self):
        fcts = {}
        for cc in ("bbr", "bbr+suss"):
            bench = make_transfer(cc=cc, size=1400 * MSS, rtt=0.2,
                                  rate=25_000_000, buffer_bdp=2.0).run()
            assert bench.transfer.completed
            fcts[cc] = bench.transfer.fct
        assert fcts["bbr+suss"] < fcts["bbr"]

    def test_no_extra_loss(self):
        for buffer_bdp in (0.5, 1.0):
            plain = make_transfer(cc="bbr", size=2000 * MSS,
                                  buffer_bdp=buffer_bdp).run()
            suss = make_transfer(cc="bbr+suss", size=2000 * MSS,
                                 buffer_bdp=buffer_bdp).run()
            assert suss.drops <= \
                plain.drops * 1.5 + 20

    def test_boost_reverts_after_startup(self):
        # Small BDP so STARTUP completes well before the flow ends.
        bench = make_transfer(cc="bbr+suss", size=4000 * MSS,
                              rate=2_500_000, rtt=0.05, buffer_bdp=2.0).run()
        cc = bench.cc
        assert cc.filled_pipe
        assert cc._boost == 1.0

    def test_growth_history_recorded(self):
        bench = make_transfer(cc="bbr+suss", size=1400 * MSS, rtt=0.2,
                              rate=25_000_000, buffer_bdp=2.0).run()
        history = bench.cc.growth_history
        assert history
        assert all(g in (2, 4) for _, g in history)

    def test_kmax_parameter(self):
        cc = create("bbr+suss")
        assert cc.k_max == 1
        assert SussBbr(k_max=3).k_max == 3
