"""AST-based determinism linter for the simulation codebase.

The reproduction's figure/table harnesses and the content-addressed
campaign cache both assume bit-for-bit determinism: the same seed must
produce the same result on every run and platform.  These rules make the
known ways of breaking that assumption un-mergeable:

``DET001``
    Wall-clock access (``time.time``, ``time.monotonic``,
    ``datetime.now``, ...).  Only the campaign layer (worker timeouts,
    progress/ETA reporting) may observe real time; simulation code must
    use ``Simulator.now``.
``DET002``
    Calls to the ``random`` module's global functions (``random.random``,
    ``random.choice``, ...) or ``from random import <function>``.  The
    global RNG is shared process-wide state; components must take an
    injected ``random.Random`` stream (see :mod:`repro.sim.rng`).
``DET003``
    ``random.Random()`` with no seed — seeded from the OS, differs every
    run.
``DET004``
    Default-seeded RNG fallbacks: ``rng or random.Random(0)``,
    ``def f(rng=random.Random(0))``, ``lambda: random.Random(0)``.  Two
    components left un-wired silently share identical random streams,
    which is how correlated loss/jitter bugs creep in unnoticed.
``DET005``
    Mutable default arguments — shared across calls, so state leaks
    between otherwise independent simulation runs.
``DET006``
    ``==`` / ``!=`` against simulated time (``sim.now``).  Float time
    accumulates rounding error; equality comparisons flip with seed or
    platform.  Compare with tolerances or orderings instead.

A finding on a specific line can be suppressed with ``# noqa: DET00x``
(or a bare ``# noqa``) when the usage is deliberate.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.analysis.findings import Finding

#: dotted names whose *call* constitutes wall-clock access
WALL_CLOCK_CALLS: Set[str] = {
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.process_time", "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_NOQA_RE = re.compile(r"#\s*noqa(?::\s*(?P<rules>[A-Z0-9, ]+))?", re.IGNORECASE)

PathLike = Union[str, Path]


def applicable_rules(path: PathLike) -> Set[str]:
    """Determinism rules that apply to ``path`` (exemptions by location).

    * ``repro/campaign/`` owns real-time concerns (worker timeouts,
      progress/ETA), ``repro/analysis/`` is tooling and ``repro/obs/``
      owns profiling (measuring wall time is its job; profiler output
      must never feed back into simulation results or trace digests) —
      all three are exempt from DET001.  ``repro/validate/`` is not:
      its reports are promised byte-identical across runs.
    * ``tests/`` drive simulations from outside, time test runs, and
      assert exact event times on hand-built schedules, so they are
      exempt from DET001, DET002 and DET006.

    Everything else — including fixture trees handed to
    :func:`lint_paths` by the test suite — gets the full rule set.
    """
    rules = {"DET001", "DET002", "DET003", "DET004", "DET005", "DET006"}
    parts = Path(path).parts
    name = Path(path).name
    in_tests = "tests" in parts or name.startswith(("test_", "conftest"))
    if "campaign" in parts or "analysis" in parts or "obs" in parts:
        rules.discard("DET001")
    if in_tests:
        rules.difference_update({"DET001", "DET002", "DET006"})
    return rules


def _noqa_rules(line: str) -> Optional[Set[str]]:
    """Rule IDs suppressed on ``line`` (empty set = suppress everything)."""
    match = _NOQA_RE.search(line)
    if match is None:
        return None
    listed = match.group("rules")
    if not listed:
        return set()
    return {rule.strip().upper() for rule in listed.split(",") if rule.strip()}


class _AliasCollector(ast.NodeVisitor):
    """Map local names to the qualified stdlib names they were imported as."""

    def __init__(self) -> None:
        self.aliases: Dict[str, str] = {}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = alias.name

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"


def _dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Resolve an attribute chain to a qualified dotted name, or None."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    chain.append(node.id)
    chain.reverse()
    chain[0] = aliases.get(chain[0], chain[0])
    return ".".join(chain)


def _is_random_random(node: ast.AST, aliases: Dict[str, str]) -> bool:
    return (isinstance(node, ast.Call)
            and _dotted(node.func, aliases) == "random.Random")


def _constant_args_only(call: ast.Call) -> bool:
    return (not call.keywords
            and all(isinstance(a, ast.Constant) for a in call.args))


class _DeterminismVisitor(ast.NodeVisitor):
    def __init__(self, path: str, rules: Set[str],
                 aliases: Dict[str, str]) -> None:
        self.path = path
        self.rules = rules
        self.aliases = aliases
        self.findings: List[Finding] = []

    def _report(self, rule: str, node: ast.AST, message: str) -> None:
        if rule in self.rules:
            self.findings.append(Finding(
                rule=rule, path=self.path, line=node.lineno,
                col=node.col_offset, message=message))

    # -- DET002 (import form) ------------------------------------------
    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random" and not node.level:
            bad = [a.name for a in node.names if a.name != "Random"]
            if bad:
                self._report(
                    "DET002", node,
                    f"importing {', '.join(bad)} from random binds the shared "
                    f"global RNG; inject a seeded random.Random stream instead")
        self.generic_visit(node)

    # -- calls: DET001 / DET002 / DET003 -------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        dotted = _dotted(node.func, self.aliases)
        if dotted in WALL_CLOCK_CALLS:
            self._report(
                "DET001", node,
                f"wall-clock call {dotted}() in simulation code; use the "
                f"simulator's virtual clock (campaign/ is the only real-time layer)")
        elif dotted is not None and dotted.startswith("random."):
            if dotted == "random.Random":
                if not node.args and not node.keywords:
                    self._report(
                        "DET003", node,
                        "random.Random() without a seed is seeded from the OS; "
                        "pass an explicit derived seed (see repro.sim.rng)")
            elif "." not in dotted[len("random."):]:
                self._report(
                    "DET002", node,
                    f"{dotted}() draws from the process-global RNG; inject a "
                    f"seeded random.Random stream instead")
        self.generic_visit(node)

    # -- DET004: default-seeded fallbacks ------------------------------
    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        if isinstance(node.op, ast.Or):
            for value in node.values[1:]:
                if (_is_random_random(value, self.aliases)
                        and _constant_args_only(value)):
                    self._report(
                        "DET004", value,
                        "fallback to a fixed-seed random.Random hides a missing "
                        "rng injection; require the rng (or fail loudly)")
        self.generic_visit(node)

    def visit_Lambda(self, node: ast.Lambda) -> None:
        if (_is_random_random(node.body, self.aliases)
                and _constant_args_only(node.body)):
            self._report(
                "DET004", node,
                "default factory producing a fixed-seed random.Random; "
                "every un-wired instance shares an identical stream")
        self.generic_visit(node)

    # -- DET004 (parameter defaults) + DET005 --------------------------
    def _check_defaults(self, node) -> None:
        args = node.args
        for default in list(args.defaults) + [d for d in args.kw_defaults if d]:
            if _is_random_random(default, self.aliases):
                self._report(
                    "DET004", default,
                    "random.Random as a parameter default is created once and "
                    "shared by every call; require an injected rng")
            elif isinstance(default, (ast.List, ast.Dict, ast.Set)):
                self._report(
                    "DET005", default,
                    "mutable default argument is shared across calls")
            elif (isinstance(default, ast.Call)
                  and isinstance(default.func, ast.Name)
                  and default.func.id in {"list", "dict", "set"}
                  and not default.args and not default.keywords):
                self._report(
                    "DET005", default,
                    f"{default.func.id}() default argument is shared across calls")

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_defaults(node)
        self.generic_visit(node)

    # -- DET006: float equality against simulated time ------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for operand in [node.left] + node.comparators:
                if self._is_sim_time(operand):
                    self._report(
                        "DET006", node,
                        "== / != against simulated time is float-fragile; "
                        "compare with <=/>= or an explicit tolerance")
                    break
        self.generic_visit(node)

    @staticmethod
    def _is_sim_time(node: ast.AST) -> bool:
        return ((isinstance(node, ast.Attribute) and node.attr in {"now", "_now"})
                or (isinstance(node, ast.Name) and node.id == "now"))


def lint_source(source: str, path: PathLike,
                rules: Optional[Set[str]] = None) -> List[Finding]:
    """Lint one file's source text; ``path`` is used for rule scoping."""
    rel = str(path)
    if rules is None:
        rules = applicable_rules(path)
    try:
        tree = ast.parse(source, filename=rel)
    except SyntaxError as exc:
        return [Finding(rule="DET000", path=rel, line=exc.lineno or 1,
                        col=exc.offset or 0,
                        message=f"syntax error: {exc.msg}")]
    collector = _AliasCollector()
    collector.visit(tree)
    visitor = _DeterminismVisitor(rel, rules, collector.aliases)
    visitor.visit(tree)
    lines = source.splitlines()
    kept: List[Finding] = []
    for finding in visitor.findings:
        line = lines[finding.line - 1] if finding.line - 1 < len(lines) else ""
        suppressed = _noqa_rules(line)
        if suppressed is not None and (not suppressed or finding.rule in suppressed):
            continue
        kept.append(finding)
    return kept


def iter_python_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            files.extend(f for f in p.rglob("*.py")
                         if "__pycache__" not in f.parts
                         and not any(part.startswith(".") for part in f.parts))
        elif p.suffix == ".py":
            files.append(p)
    return sorted(set(files))


def lint_paths(paths: Sequence[PathLike]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    findings: List[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_source(file.read_text(encoding="utf-8"), file))
    return findings
