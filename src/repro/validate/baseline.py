"""Recorded claim baselines: per-claim metric distributions and drift.

``repro validate --record-baseline`` writes each claim's per-seed
treatment samples to a content-addressed store
(``<root>/<code fingerprint[:16]>/<claim id>.json``).  A later
``repro validate --against <root>`` re-runs the claims and flags any
claim whose fresh treatment distribution has *drifted* from the
recorded one — a two-sided seeded permutation test plus a Cliff's
delta floor, so a real behaviour change fails loudly while resampling
noise does not.  Drift flips the claim's verdict to FAIL.

Nothing here reads the wall clock: how fast the code runs is recorded
by ``benchmarks/perf`` alone (DESIGN.md §8).
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.sim.rng import derive_seed
from repro.validate.stats import cliffs_delta, permutation_test

#: Cliff's delta magnitude below which a "significant" drift is ignored
#: (protects near-degenerate distributions where one changed seed makes
#: the permutation test arbitrarily small).
DRIFT_DELTA_FLOOR = 0.5


class BaselineStore:
    """Per-claim treatment-sample distributions under a code fingerprint."""

    def __init__(self, root: os.PathLike, fingerprint: str):
        self.root = Path(root)
        self.fingerprint = fingerprint

    @property
    def generation_dir(self) -> Path:
        return self.root / self.fingerprint[:16]

    def path_for(self, claim_id: str) -> Path:
        return self.generation_dir / f"{claim_id}.json"

    def record(self, claim_id: str, *, mode: str, base_seed: int,
               samples: Sequence[float]) -> Path:
        path = self.path_for(claim_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {
            "claim_id": claim_id,
            "fingerprint": self.fingerprint,
            "mode": mode,
            "base_seed": base_seed,
            "samples": [float(s) for s in samples],
        }
        tmp = path.parent / f".{claim_id}.{os.getpid()}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(record, fh, sort_keys=True, indent=2)
        os.replace(tmp, path)
        return path

    def load(self, claim_id: str) -> Optional[Dict[str, Any]]:
        try:
            with open(self.path_for(claim_id), "r", encoding="utf-8") as fh:
                record = json.load(fh)
        except (OSError, ValueError):
            return None
        if not isinstance(record, dict) or "samples" not in record:
            return None
        return record

    def claim_ids(self) -> List[str]:
        if not self.generation_dir.is_dir():
            return []
        return sorted(p.stem for p in self.generation_dir.glob("*.json"))


def resolve_fingerprint(root: os.PathLike,
                        requested: Optional[str] = None) -> str:
    """Pick the baseline generation to compare against.

    With ``requested`` (a fingerprint or unique prefix), match it; with
    exactly one generation on disk, use it; otherwise the caller must
    disambiguate — no mtime heuristics, resolution is deterministic.
    """
    rootp = Path(root)
    generations = sorted(p.name for p in rootp.iterdir()
                         if p.is_dir()) if rootp.is_dir() else []
    if not generations:
        raise FileNotFoundError(f"no recorded baselines under {rootp}")
    if requested:
        matches = [g for g in generations if g.startswith(requested[:16])]
        if not matches:
            raise KeyError(f"no baseline generation matches "
                           f"{requested!r}; have: {', '.join(generations)}")
        if len(matches) > 1:
            raise KeyError(f"fingerprint prefix {requested!r} is ambiguous: "
                           f"{', '.join(matches)}")
        return matches[0]
    if len(generations) > 1:
        raise KeyError(
            f"multiple baseline generations under {rootp} "
            f"({', '.join(generations)}); pass --baseline-fingerprint")
    return generations[0]


def detect_drift(claim_id: str, recorded: Sequence[float],
                 fresh: Sequence[float], *, base_seed: int = 0,
                 alpha: float = 0.01,
                 n_resamples: int = 2000) -> Dict[str, Any]:
    """Compare a fresh treatment distribution against the recorded one.

    Drift requires both statistical evidence (two-sided permutation test
    at ``alpha``) and a material effect (|Cliff's delta| >=
    :data:`DRIFT_DELTA_FLOOR`).  Identical distributions short-circuit
    to "stable" without resampling.
    """
    result: Dict[str, Any] = {
        "claim_id": claim_id,
        "n_recorded": len(recorded),
        "n_fresh": len(fresh),
        "alpha": alpha,
    }
    if sorted(recorded) == sorted(fresh):
        result.update(drifted=False, p_value=1.0, cliffs_delta=0.0)
        return result
    rng = random.Random(derive_seed(base_seed, f"validate.drift:{claim_id}"))
    p = permutation_test(list(fresh), list(recorded), rng,
                         n_resamples=n_resamples, alternative="two-sided")
    delta = cliffs_delta(list(fresh), list(recorded))
    result.update(drifted=bool(p <= alpha and abs(delta)
                               >= DRIFT_DELTA_FLOOR),
                  p_value=p, cliffs_delta=delta)
    return result

