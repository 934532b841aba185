"""The import budget: describing and looking up a campaign loads none of
the code that executes one.  Names and counts, never time.

Every check runs in a fresh interpreter (``PYTHONHASHSEED=0``) and
reads ``sys.modules``, which — unlike a ``-X importtime`` log — also
holds what ``importlib.import_module`` loaded.
"""

from __future__ import annotations

import json

import pytest

from tests.import_budget import (
    MAX_MODULES,
    MAX_REPRO_MODULES,
    forbidden,
    fresh_python as python,
)

#: 2 scenarios x 2 schemes, small enough to execute in well under a second
CAMPAIGN = ["campaign", "--servers", "google-tokyo", "--links", "wired,wifi",
            "--sizes", "100000", "--ccs", "cubic,cubic+suss",
            "--iterations", "1", "--seed", "1", "--jobs", "1", "--quiet"]


def report(stdout: str) -> str:
    """A campaign's stdout without its closing host-time line."""
    return "".join(line for line in stdout.splitlines(keepends=True)
                   if not line.startswith("campaign:"))


def test_importing_repro_imports_no_subpackage():
    out = python("-c", "import sys, repro; print([m for m in sys.modules "
                       "if m.startswith('repro.')])").stdout
    assert out.strip() == "[]"


#: Runs the campaign twice in one process: warm, then with every other
#: record of the store deleted.  Prints one JSON object.
WARM_THEN_REFILL = """
import contextlib, io, json, sys
from pathlib import Path
from repro.cli import main

cache, stats_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]

def campaign():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue(), json.loads(Path(stats_path).read_text())

warm, warm_stats = campaign()
after_warm = sorted(sys.modules)
records = sorted(Path(cache).glob("*/*/*.json"))
for path in records[::2]:
    path.unlink()
refill, refill_stats = campaign()
print(json.dumps({
    "warm": warm, "warm_stats": warm_stats, "after_warm": after_warm,
    "records": len(records), "refill": refill, "refill_stats": refill_stats,
    "records_after": len(list(Path(cache).glob("*/*/*.json"))),
    "simulator_loaded": "repro.sim.engine" in sys.modules}))
"""


@pytest.fixture(scope="module")
def warm_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("budget")
    store = ["--cache-dir", str(tmp / "cache"),
             "--stats-json", str(tmp / "stats.json")]
    cold = python("-m", "repro", *CAMPAIGN, *store).stdout
    cold_stats = json.loads((tmp / "stats.json").read_text())
    assert cold_stats["executed"] == cold_stats["total"] == 4
    run = json.loads(python("-c", WARM_THEN_REFILL, str(tmp / "cache"),
                            str(tmp / "stats.json"), *CAMPAIGN,
                            *store).stdout)
    run["cold"] = cold
    return run


class TestWarmCampaign:
    def test_every_job_is_a_hit_and_the_report_is_the_cold_one(self, warm_run):
        assert warm_run["warm_stats"]["cached"] == 4
        assert warm_run["warm_stats"]["executed"] == 0
        assert report(warm_run["warm"]) == report(warm_run["cold"])
        assert report(warm_run["warm"]) != ""

    def test_no_executing_module_is_loaded(self, warm_run):
        assert forbidden(warm_run["after_warm"]) == []

    def test_module_counts_stay_within_budget(self, warm_run):
        modules = warm_run["after_warm"]
        ours = [m for m in modules if m.split(".")[0] == "repro"]
        assert len(ours) <= MAX_REPRO_MODULES, ours
        assert len(modules) <= MAX_MODULES, len(modules)

    def test_misses_load_the_simulator_and_refill_the_store(self, warm_run):
        """Lazy -> eager in one process: the same interpreter that served
        four hits executes two misses and prints the same report."""
        assert warm_run["records"] == 4
        assert warm_run["refill_stats"]["executed"] == 2
        assert warm_run["refill_stats"]["cached"] == 2
        assert warm_run["records_after"] == 4
        assert warm_run["simulator_loaded"]
        assert report(warm_run["refill"]) == report(warm_run["warm"])


class TestCongestionControlsLoadOnUse:
    def algorithm_modules(self, code: str):
        out = python("-c", code + "; import sys; print(sorted(m for m in "
                           "sys.modules if m.startswith(('repro.cc.', "
                           "'repro.core.')) and m not in ('repro.cc.base', "
                           "'repro.core.units')))").stdout
        return out.splitlines()

    def test_list_cc_imports_no_algorithm(self):
        *names, modules = self.algorithm_modules(
            "from repro.cli import main; main(['list-cc'])")
        assert len(names) == 17 and names == sorted(names)
        assert modules == "[]"

    def test_create_imports_the_one_module_its_row_names(self):
        (modules,) = self.algorithm_modules(
            "from repro.cc.base import create; create('reno')")
        assert modules == "['repro.cc.reno']"
