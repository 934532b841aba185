"""Determinism-linter tests: every rule must fire on a seeded violation."""

import textwrap
from pathlib import Path

from repro.analysis import applicable_rules, lint_paths, lint_source
from repro.analysis.findings import RULES, render_json, render_text

#: path under which the full strict rule set applies
SIM_PATH = "src/repro/net/example.py"


def lint(source, path=SIM_PATH):
    return lint_source(textwrap.dedent(source), path)


def rules_of(findings):
    return [f.rule for f in findings]


class TestDET001WallClock:
    def test_time_time_flagged(self):
        findings = lint("""\
            import time
            def stamp():
                return time.time()
            """)
        assert rules_of(findings) == ["DET001"]

    def test_from_import_alias_resolved(self):
        findings = lint("""\
            from time import monotonic as mono
            def stamp():
                return mono()
            """)
        assert rules_of(findings) == ["DET001"]

    def test_datetime_now_flagged(self):
        findings = lint("""\
            from datetime import datetime
            def stamp():
                return datetime.now()
            """)
        assert rules_of(findings) == ["DET001"]

    def test_campaign_layer_exempt(self):
        findings = lint("""\
            import time
            def stamp():
                return time.time()
            """, path="src/repro/campaign/progress.py")
        assert findings == []

    def test_obs_layer_exempt(self):
        # profiling is wall-clock by definition; obs is outside the
        # deterministic core
        findings = lint("""\
            from time import perf_counter
            def stamp():
                return perf_counter()
            """, path="src/repro/obs/profile.py")
        assert findings == []

    def test_validate_layer_not_exempt(self):
        # validate reports are promised byte-identical across runs
        findings = lint("""\
            import time
            def measure():
                return time.perf_counter()
            """, path="src/repro/validate/baseline.py")
        assert rules_of(findings) == ["DET001"]


class TestDET002GlobalRandom:
    def test_module_call_flagged(self):
        findings = lint("""\
            import random
            def pick():
                return random.random()
            """)
        assert rules_of(findings) == ["DET002"]

    def test_from_import_flagged(self):
        findings = lint("from random import choice\n")
        assert rules_of(findings) == ["DET002"]

    def test_from_import_random_class_ok(self):
        findings = lint("""\
            from random import Random
            def make(seed):
                return Random(seed)
            """)
        assert findings == []

    def test_method_on_injected_rng_ok(self):
        findings = lint("""\
            def pick(rng):
                return rng.random()
            """)
        assert findings == []


class TestDET003UnseededRandom:
    def test_unseeded_flagged(self):
        findings = lint("""\
            import random
            def make():
                return random.Random()
            """)
        assert rules_of(findings) == ["DET003"]

    def test_seeded_ok(self):
        findings = lint("""\
            import random
            def make(seed):
                return random.Random(seed)
            """)
        assert findings == []


class TestDET004DefaultSeededFallback:
    def test_or_fallback_flagged(self):
        findings = lint("""\
            import random
            def setup(rng=None):
                rng = rng or random.Random(0)
                return rng
            """)
        assert rules_of(findings) == ["DET004"]

    def test_lambda_factory_flagged(self):
        findings = lint("""\
            import random
            from dataclasses import dataclass, field
            @dataclass
            class Model:
                rng: object = field(default_factory=lambda: random.Random(0))
            """)
        assert rules_of(findings) == ["DET004"]

    def test_parameter_default_flagged(self):
        findings = lint("""\
            import random
            def run(rng=random.Random(7)):
                return rng.random()
            """)
        assert "DET004" in rules_of(findings)


class TestDET005MutableDefaults:
    def test_list_literal_flagged(self):
        findings = lint("def f(xs=[]):\n    return xs\n")
        assert rules_of(findings) == ["DET005"]

    def test_dict_call_flagged(self):
        findings = lint("def f(opts=dict()):\n    return opts\n")
        assert rules_of(findings) == ["DET005"]

    def test_none_default_ok(self):
        findings = lint("def f(xs=None):\n    return xs or []\n")
        assert findings == []


class TestDET006FloatTimeEquality:
    def test_sim_now_equality_flagged(self):
        findings = lint("""\
            def done(sim):
                return sim.now == 4.0
            """)
        assert rules_of(findings) == ["DET006"]

    def test_ordering_comparison_ok(self):
        findings = lint("""\
            def done(sim):
                return sim.now >= 4.0
            """)
        assert findings == []

    def test_tests_exempt(self):
        findings = lint("""\
            def test_clock(sim):
                assert sim.now == 4.0
            """, path="tests/test_example.py")
        assert findings == []


class TestNoqa:
    def test_bare_noqa_suppresses(self):
        findings = lint("""\
            import time
            def stamp():
                return time.time()  # noqa
            """)
        assert findings == []

    def test_targeted_noqa_suppresses_only_listed(self):
        findings = lint("""\
            import time
            def stamp():
                return time.time()  # noqa: DET001
            """)
        assert findings == []

    def test_wrong_rule_noqa_keeps_finding(self):
        findings = lint("""\
            import time
            def stamp():
                return time.time()  # noqa: DET005
            """)
        assert rules_of(findings) == ["DET001"]


class TestScoping:
    def test_sim_code_gets_full_set(self):
        assert applicable_rules("src/repro/sim/engine.py") == {
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006"}

    def test_tests_lose_timing_rules(self):
        rules = applicable_rules("tests/test_sim_engine.py")
        assert "DET001" not in rules
        assert "DET006" not in rules
        assert "DET003" in rules

    def test_validate_gets_full_set(self):
        assert applicable_rules("src/repro/validate/stats.py") == \
            applicable_rules("src/repro/sim/engine.py")
        for package in ("campaign", "obs", "analysis"):
            rules = applicable_rules(f"src/repro/{package}/x.py")
            assert "DET001" not in rules
            assert {"DET002", "DET003", "DET004", "DET005",
                    "DET006"} <= rules

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n")
        assert rules_of(findings) == ["DET000"]


class TestRendering:
    def test_every_reported_rule_is_catalogued(self):
        for rule in ("DET000", "DET001", "DET002", "DET003", "DET004",
                     "DET005", "DET006", "LAY001", "LAY002", "LAY003"):
            assert rule in RULES

    def test_render_text_includes_location_and_count(self):
        findings = lint("import time\nx = time.time()\n")
        text = render_text(findings)
        assert "DET001" in text
        assert "1 finding" in text

    def test_render_json_is_parseable(self):
        import json
        findings = lint("import time\nx = time.time()\n")
        payload = json.loads(render_json(findings))
        assert payload["findings"][0]["rule"] == "DET001"
        assert "DET001" in payload["rules"]


class TestRealTree:
    def test_merged_tree_is_clean(self):
        repo = Path(__file__).resolve().parent.parent
        findings = lint_paths([repo / "src", repo / "tests"])
        assert findings == [], "\n" + render_text(findings)
