"""Finding model and the rule catalogue shared by the linter and layering checker.

Every static check in :mod:`repro.analysis` reports :class:`Finding`
instances tagged with a stable rule ID.  The catalogue below is the
source of truth for IDs and rationale; DESIGN.md §6 renders the same
table for humans.  Runtime sanitizer checks (SAN0xx) raise instead of
reporting findings, but their IDs live here too so documentation and
error messages stay consistent.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List

#: rule ID -> one-line rationale.  Determinism rules are DET0xx, layering
#: rules LAY0xx, runtime sanitizer checks SAN0xx.
RULES: Dict[str, str] = {
    "DET000": "file could not be parsed (syntax error); nothing else was checked",
    "DET001": "wall-clock access (time.time/monotonic/perf_counter, datetime.now, ...) "
              "outside campaign/ poisons determinism and the campaign result cache",
    "DET002": "module-level random.* call or import draws from the shared global RNG; "
              "inject a seeded stream from sim/rng.py instead",
    "DET003": "unseeded random.Random() is seeded from the OS; every run differs",
    "DET004": "default-seeded RNG fallback (rng or random.Random(0), rng=random.Random(0)); "
              "two un-wired components silently share identical streams",
    "DET005": "mutable default argument is shared across calls and leaks state "
              "between simulation runs",
    "DET006": "float == / != against simulated time; accumulated float error makes "
              "the comparison seed- and platform-dependent",
    "LAY001": "import crosses the declared layer DAG (see DESIGN.md §6)",
    "LAY002": "campaign may reach the experiments layer only through "
              "repro.experiments.runner",
    "LAY003": "runtime import of a layer that is allowed for typing only "
              "(guard it with typing.TYPE_CHECKING)",
    "SAN002": "event fired behind the simulation clock (heap monotonicity broken)",
    "SAN003": "packet conservation violated (sent != delivered + dropped + in-flight)",
    "SAN004": "cwnd fell below 1 MSS or became non-finite",
    "SAN005": "pacing rate is non-finite or not positive",
    "SAN006": "SACK scoreboard / reassembly buffer out of order, miscounted, "
              "or retransmit cursor past the highest SACKed byte",
}

#: rule ID -> multi-line catalogue entry for ``repro lint --explain``.
#: The one-liners above summarise; these say why the rule exists, what it
#: matches, and how to fix or deliberately suppress a finding.
EXPLANATIONS: Dict[str, str] = {
    "DET000": """\
The file failed to parse, so none of the AST rules ran on it.  Fix the
syntax error; the finding points at the parser's position.""",
    "DET001": """\
Wall-clock access (time.time/monotonic/perf_counter, datetime.now, ...)
in simulation code.  Results must be a pure function of the seed, and
the campaign cache is content-addressed on that assumption; only
campaign/ (worker timeouts, ETA), obs/ (profiling), validate/ (perf
gates) and analysis/ may observe real time.  Use Simulator.now.""",
    "DET002": """\
A call to the random module's global functions (random.random(),
random.choice(), ...) or `from random import <function>`.  The global
RNG is process-wide shared state: any import-order or call-order change
perturbs every downstream draw.  Inject a seeded random.Random stream
derived via repro.sim.rng.derive_seed instead.""",
    "DET003": """\
random.Random() with no seed is seeded from the OS and differs every
run.  Pass an explicit derived seed (repro.sim.rng).""",
    "DET004": """\
A default-seeded RNG fallback (`rng or random.Random(0)`, parameter
defaults, lambda factories).  Two components left un-wired silently
share identical streams — correlated loss/jitter with no error message.
Require the rng and fail loudly when it is missing.""",
    "DET005": """\
A mutable default argument ([], {}, set(), list()) is evaluated once
and shared by every call, leaking state between simulation runs.  Use
None and construct inside the function.""",
    "DET006": """\
== or != against simulated time.  Float time accumulates rounding
error, so exact equality flips with seed and platform.  Compare with
orderings or an explicit tolerance.""",
    "LAY001": """\
An import crosses the declared layer DAG (DESIGN.md §6).  The
reproduction mirrors the paper's patch boundaries: SUSS stays behind
the cc API, the simulator never learns about experiments.  Move the
dependency below the boundary, pass data instead of importing, or — for
a genuinely layer-free leaf — add a narrow module waiver in
repro.analysis.layering with a justification.""",
    "LAY002": """\
campaign may reach the experiments layer only through
repro.experiments.runner, the single deliberately-lazy seam that lets
campaign jobs execute experiment harnesses.""",
    "LAY003": """\
A runtime import of a layer that is allowed for typing only.  Guard it
with `if typing.TYPE_CHECKING:` so the API dependency stays
compile-time only.""",
    "SAN002": """\
Runtime sanitizer: the event heap dispatched an event behind the
simulation clock — heap discipline or clock monotonicity is broken.""",
    "SAN003": """\
Runtime sanitizer: packet conservation failed; packets sent must equal
delivered + dropped + in-flight at every check.""",
    "SAN004": """\
Runtime sanitizer: cwnd fell below 1 MSS or became non-finite; no CC
algorithm in the reproduction may do either.""",
    "SAN005": """\
Runtime sanitizer: a pacing rate became non-finite or non-positive
(Eq. 11 rates are strictly positive by construction).""",
    "SAN006": """\
Runtime sanitizer: loss-recovery bookkeeping drifted from what a rebuild
from scratch would give.  The sender's SACK scoreboard and the
receiver's reassembly buffer (repro.tcp.intervals.IntervalSet) are
updated in place per packet; on every ACK and every buffered segment the
sanitizer re-derives what must hold: intervals ascending, non-empty,
with a gap between neighbours, strictly above the cumulative point
(snd_una / rcv_nxt); the running byte counter equal to the recomputed
sum (bytes_in_flight reads it on every send decision); and the sender's
retransmit cursor at or below the highest SACKed byte -- a cursor
beyond it would skip holes that were never retransmitted and leave them
to the RTO.  A finding means an IntervalSet splice or a cursor update is
wrong, not the run's inputs.""",
}


def explain(rule: str) -> str:
    """Catalogue entry for ``rule`` (for ``repro lint --explain``)."""
    rule = rule.strip().upper()
    if rule not in RULES:
        known = ", ".join(sorted(RULES))
        raise KeyError(f"unknown rule {rule!r}; known rules: {known}")
    body = EXPLANATIONS.get(rule, "")
    header = f"{rule}: {RULES[rule]}"
    return f"{header}\n\n{body}" if body else header


@dataclass(frozen=True)
class Finding:
    """One static-analysis finding, pointing at a file location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def sort_findings(findings: Iterable[Finding]) -> List[Finding]:
    """Stable presentation order: by path, then position, then rule."""
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def render_text(findings: Iterable[Finding]) -> str:
    """Human-readable report, one finding per line plus a summary."""
    ordered = sort_findings(findings)
    lines = [f.render() for f in ordered]
    noun = "finding" if len(ordered) == 1 else "findings"
    lines.append(f"{len(ordered)} {noun}")
    return "\n".join(lines)


def render_json(findings: Iterable[Finding]) -> str:
    """Machine-readable report (stable key order for diffing in CI)."""
    ordered = sort_findings(findings)
    payload = {
        "findings": [asdict(f) for f in ordered],
        "count": len(ordered),
        "rules": {rule: RULES[rule] for rule in sorted({f.rule for f in ordered})},
    }
    return json.dumps(payload, indent=2, sort_keys=True)
