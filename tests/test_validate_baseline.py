"""Tests for repro.validate.baseline — claim baselines and drift detection."""

import pytest

from repro.validate.baseline import (
    BaselineStore,
    detect_drift,
    resolve_fingerprint,
)


class TestBaselineStore:
    def test_record_and_load_roundtrip(self, tmp_path):
        store = BaselineStore(tmp_path, "f" * 64)
        store.record("claim-a", mode="quick", base_seed=0,
                     samples=[1.0, 2.0, 3.0])
        record = store.load("claim-a")
        assert record["samples"] == [1.0, 2.0, 3.0]
        assert record["mode"] == "quick"
        assert record["fingerprint"] == "f" * 64

    def test_missing_and_corrupt_records_are_none(self, tmp_path):
        store = BaselineStore(tmp_path, "f" * 64)
        assert store.load("never-recorded") is None
        store.generation_dir.mkdir(parents=True)
        (store.generation_dir / "bad.json").write_text("{not json")
        assert store.load("bad") is None

    def test_claim_ids_sorted(self, tmp_path):
        store = BaselineStore(tmp_path, "f" * 64)
        for cid in ("zeta", "alpha"):
            store.record(cid, mode="quick", base_seed=0, samples=[1.0])
        assert store.claim_ids() == ["alpha", "zeta"]


class TestResolveFingerprint:
    def test_single_generation_auto_resolves(self, tmp_path):
        (tmp_path / "abc123").mkdir()
        assert resolve_fingerprint(tmp_path) == "abc123"

    def test_multiple_generations_require_choice(self, tmp_path):
        (tmp_path / "abc123").mkdir()
        (tmp_path / "def456").mkdir()
        with pytest.raises(KeyError):
            resolve_fingerprint(tmp_path)
        assert resolve_fingerprint(tmp_path, "def") == "def456"

    def test_unknown_prefix_rejected(self, tmp_path):
        (tmp_path / "abc123").mkdir()
        with pytest.raises(KeyError):
            resolve_fingerprint(tmp_path, "zzz")

    def test_empty_root_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            resolve_fingerprint(tmp_path / "nothing")


class TestDetectDrift:
    def test_identical_distributions_stable(self):
        samples = [1.0, 1.1, 0.9, 1.05, 0.95]
        drift = detect_drift("c", samples, list(reversed(samples)))
        assert not drift["drifted"]
        assert drift["p_value"] == 1.0

    def test_shifted_distribution_drifts(self):
        recorded = [1.0, 1.1, 0.9, 1.05, 0.95, 1.02, 0.98]
        fresh = [2.0, 2.1, 1.9, 2.05, 1.95, 2.02, 1.98]
        drift = detect_drift("c", recorded, fresh)
        assert drift["drifted"]
        assert drift["p_value"] <= 0.01
        assert drift["cliffs_delta"] == 1.0

    def test_tiny_effect_does_not_drift(self):
        # Heavy overlap: significant-but-small shifts stay below the
        # Cliff's-delta floor and must not flag.
        recorded = [1.0, 2.0, 3.0, 4.0, 5.0] * 4
        fresh = [1.1, 2.1, 2.9, 4.1, 5.1] * 4
        drift = detect_drift("c", recorded, fresh)
        assert not drift["drifted"]

    def test_deterministic(self):
        recorded, fresh = [1.0, 2.0, 3.0], [2.0, 3.0, 4.0]
        a = detect_drift("c", recorded, fresh, base_seed=5)
        b = detect_drift("c", recorded, fresh, base_seed=5)
        assert a == b
