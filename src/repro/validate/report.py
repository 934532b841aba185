"""Validation verdicts and the :class:`ValidationReport` container.

The driver folds each claim's baseline/treatment samples into a
:class:`ClaimVerdict` — effect point estimate, bootstrap CI, one-sided
p-values, Cliff's delta, and a PASS / FAIL / INCONCLUSIVE call — and
collects them in a :class:`ValidationReport` that renders either as a
human narrative (``render_text``, mirroring
:meth:`repro.obs.analyze.report.TraceAnalysis.render_text`) or as
deterministic JSON (``to_dict`` + :func:`report_json`).

Determinism contract: nothing time- or machine-dependent goes into the
dict — no wall-clock runtimes, no cache-hit flags, no hostnames.  Two
runs with the same code, claims, mode, and seed must produce
byte-identical :func:`report_json` output, warm or cold cache.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"

VERDICTS = (PASS, FAIL, INCONCLUSIVE)


@dataclass(frozen=True)
class ClaimVerdict:
    """The statistical outcome for one claim."""

    claim_id: str
    title: str
    paper: str
    kind: str                     # "improvement" | "non_regression"
    effect: str                   # "relative" | "absolute"
    direction: str                # "lower" | "higher"
    threshold: float
    verdict: str                  # PASS | FAIL | INCONCLUSIVE
    improvement: float            # point estimate on the effect scale
    ci_low: float
    ci_high: float
    confidence: float             # CI confidence level, e.g. 0.95
    p_better: float               # one-sided MW p: treatment better
    p_worse: float                # one-sided MW p: treatment worse
    cliffs_delta: float
    n_baseline: int
    n_treatment: int
    baseline_mean: float
    treatment_mean: float
    reason: str                   # one line explaining the call
    baseline_samples: Tuple[float, ...] = field(default=())
    treatment_samples: Tuple[float, ...] = field(default=())
    drift: Optional[Dict[str, Any]] = None   # set by --against

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "claim_id": self.claim_id,
            "title": self.title,
            "paper": self.paper,
            "kind": self.kind,
            "effect": self.effect,
            "direction": self.direction,
            "threshold": self.threshold,
            "verdict": self.verdict,
            "improvement": self.improvement,
            "ci": [self.ci_low, self.ci_high],
            "confidence": self.confidence,
            "p_better": self.p_better,
            "p_worse": self.p_worse,
            "cliffs_delta": self.cliffs_delta,
            "n_baseline": self.n_baseline,
            "n_treatment": self.n_treatment,
            "baseline_mean": self.baseline_mean,
            "treatment_mean": self.treatment_mean,
            "reason": self.reason,
            "baseline_samples": list(self.baseline_samples),
            "treatment_samples": list(self.treatment_samples),
        }
        if self.drift is not None:
            out["drift"] = self.drift
        return out


@dataclass
class ValidationReport:
    """Every claim verdict from one ``repro validate`` run."""

    mode: str
    base_seed: int
    code_fingerprint: str
    verdicts: List[ClaimVerdict]

    def counts(self) -> Dict[str, int]:
        out = {v: 0 for v in VERDICTS}
        for verdict in self.verdicts:
            out[verdict.verdict] += 1
        return out

    @property
    def worst(self) -> str:
        """FAIL beats INCONCLUSIVE beats PASS (for exit-code policy)."""
        counts = self.counts()
        if counts[FAIL]:
            return FAIL
        if counts[INCONCLUSIVE]:
            return INCONCLUSIVE
        return PASS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "mode": self.mode,
            "base_seed": self.base_seed,
            "code_fingerprint": self.code_fingerprint,
            "counts": self.counts(),
            "overall": self.worst,
            "claims": [v.to_dict() for v in self.verdicts],
        }

    def render_text(self) -> str:
        counts = self.counts()
        lines = [
            f"validation ({self.mode} mode, seed {self.base_seed}, "
            f"code {self.code_fingerprint[:16]}): "
            f"{len(self.verdicts)} claims — "
            f"{counts[PASS]} pass, {counts[FAIL]} fail, "
            f"{counts[INCONCLUSIVE]} inconclusive"
        ]
        for v in self.verdicts:
            lines.append("")
            lines.extend(render_verdict(v).splitlines())
        lines.append("")
        lines.append(f"overall: {self.worst}")
        return "\n".join(lines)


def _fmt_effect(value: float, effect: str) -> str:
    return f"{value:+.1%}" if effect == "relative" else f"{value:+.4g}"


def render_verdict(v: ClaimVerdict) -> str:
    """Human narrative for one claim, obs.analyze-style."""
    fmt = lambda x: _fmt_effect(x, v.effect)
    lines = [f"[{v.verdict}] {v.claim_id} ({v.paper})"]
    lines.append(f"  {v.title}")
    lines.append(
        f"  improvement {fmt(v.improvement)} "
        f"({v.confidence:.0%} CI {fmt(v.ci_low)} .. {fmt(v.ci_high)}), "
        f"threshold {fmt(v.threshold) if v.kind == 'improvement' else fmt(-v.threshold)}")
    lines.append(
        f"  baseline mean {v.baseline_mean:.6g} (n={v.n_baseline}) vs "
        f"treatment mean {v.treatment_mean:.6g} (n={v.n_treatment}); "
        f"p(better)={v.p_better:.4f}, p(worse)={v.p_worse:.4f}, "
        f"cliffs delta {v.cliffs_delta:+.2f}")
    lines.append(f"  {v.reason}")
    if v.drift is not None:
        d = v.drift
        lines.append(
            f"  drift vs baseline {d['fingerprint'][:16]}: "
            f"{'DRIFTED' if d['drifted'] else 'stable'} "
            f"(p={d['p_value']:.4f}, cliffs delta {d['cliffs_delta']:+.2f})")
    return "\n".join(lines)


def report_json(report: ValidationReport) -> str:
    """Canonical JSON rendering — byte-identical across same-seed runs."""
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def load_report(path: str) -> Dict[str, Any]:
    """Load a previously written ``report_json`` file as a plain dict."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
