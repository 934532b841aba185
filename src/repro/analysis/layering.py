"""Import-graph layering checker for the ``repro`` package.

DESIGN.md's "faithful split" claim rests on the same module boundaries
the paper's kernel patch respects: SUSS lives behind the
``tcp_congestion_ops``-style :mod:`repro.cc` API and never reaches into
the simulator, network, or TCP internals directly.  This checker
extracts the import graph with :mod:`ast` (including function-local
imports, which are still runtime dependencies) and enforces the declared
DAG:

* ``sim`` imports nothing above it (``analysis`` is a dependency-free
  tooling leaf that any layer may use, so the sanitizer can be wired
  into the engine without inverting the DAG);
* ``cc`` sees the TCP layer as an *API only* — type-checking imports are
  allowed, runtime imports are not (LAY003);
* ``experiments`` is never imported by core layers;
* ``campaign`` reaches ``experiments`` only through
  ``repro.experiments.runner`` (LAY002) — the single, deliberately lazy
  seam that lets campaign jobs execute experiment code.

Top-level modules (``cli``, ``__main__``, the package ``__init__``) are
composition roots and unrestricted.  ``repro._lazy``, the stdlib-only
helper through which every package ``__init__`` exports its names, is
outside the layering (:data:`LAYERLESS_MODULES`).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.findings import Finding

#: layer -> other layers it may import at runtime (self-imports implied).
#: ``None`` means unrestricted (composition roots).
DEFAULT_LAYER_DAG: Dict[str, Optional[Set[str]]] = {
    "analysis": set(),
    # obs is, like analysis, a dependency-free tooling leaf: every layer
    # may emit trace records / metrics into it, and it may import nothing
    # above it (records carry plain values, never packets or senders).
    "obs": set(),
    "sim": {"analysis", "obs"},
    "net": {"sim", "analysis", "obs"},
    "cc": {"analysis", "obs"},
    "tcp": {"sim", "net", "cc", "analysis", "obs"},
    "core": {"sim", "cc", "analysis", "obs"},
    "metrics": {"sim", "net", "analysis", "obs"},
    "workloads": {"sim", "net", "tcp", "cc", "core", "metrics",
                  "analysis", "obs"},
    # flowsim is the analytical fidelity tier: it projects scenarios
    # (workloads) onto closed-form models and runs reference packet
    # flows for cross-validation, but experiments/campaign drive *it*,
    # never the reverse.
    "flowsim": {"sim", "net", "tcp", "cc", "core", "metrics",
                "workloads", "analysis", "obs"},
    "campaign": {"workloads", "flowsim", "analysis", "obs"},
    "experiments": {"sim", "net", "tcp", "cc", "core", "metrics",
                    "workloads", "flowsim", "campaign", "analysis", "obs"},
    # validate sits above experiments: it *reads* every harness to bind
    # claims but nothing below it may know validation exists (an
    # experiments -> validate import is LAY001).
    "validate": {"sim", "net", "tcp", "cc", "core", "metrics",
                 "workloads", "flowsim", "campaign", "experiments",
                 "analysis", "obs"},
    "top": None,
}

#: layer -> layers additionally importable under ``if TYPE_CHECKING:``.
DEFAULT_TYPE_ONLY: Dict[str, Set[str]] = {
    "cc": {"tcp"},
}

#: layer -> exact modules importable despite the DAG (narrow waivers).
#: ``__init__`` is the bare ``import repro`` — campaign's result store
#: hashes the package sources and only needs ``repro.__file__``.
DEFAULT_MODULE_EXCEPTIONS: Dict[str, Set[str]] = {
    "campaign": {"experiments.runner", "__init__", "core.units"},
    # The cross-validation harness scores agreement with Cliff's delta;
    # validate.stats is a pure-stdlib statistics module with no imports
    # of its own layer, so this waiver cannot smuggle validation policy
    # below the boundary.
    "flowsim": {"validate.stats"},
    # core.units is a dependency-free leaf of unit type aliases and
    # conversion constants; like analysis/obs it must be importable from every layer without
    # inverting the DAG, but unlike them it lives in core because the
    # vocabulary is the paper's (Seconds/Bytes/Segments of Eq. 11/12).
    "sim": {"core.units"},
    "net": {"core.units"},
    "cc": {"core.units"},
    "tcp": {"core.units"},
    "metrics": {"core.units"},
    "obs": {"core.units"},
}

#: Package plumbing outside the layering: the PEP 562 export helper every
#: ``__init__`` binds.  Importing it is no edge; as a source it sits in no
#: layer of the DAG, so any first-party import *it* made would be LAY001.
LAYERLESS_MODULES = frozenset({"_lazy"})


def _module_layer(module: str) -> str:
    """Layer of a package-relative module path ('sim.engine' -> 'sim')."""
    head = module.split(".", 1)[0]
    if head in ("", "cli", "__main__", "__init__"):
        return "top"
    return head


class _ImportEdge:
    __slots__ = ("target", "line", "col", "type_only")

    def __init__(self, target: str, line: int, col: int, type_only: bool):
        self.target = target      # package-relative dotted module
        self.line = line
        self.col = col
        self.type_only = type_only


class _ImportVisitor(ast.NodeVisitor):
    """Collect first-party import edges, tracking TYPE_CHECKING guards."""

    def __init__(self, package: str, module: str) -> None:
        self.package = package
        self.module = module
        self.edges: List[_ImportEdge] = []
        self._type_only_depth = 0

    def _add(self, dotted: str, node: ast.AST) -> None:
        prefix = self.package + "."
        if dotted == self.package:
            dotted = prefix + "__init__"
        if not dotted.startswith(prefix):
            return
        self.edges.append(_ImportEdge(
            dotted[len(prefix):], node.lineno, node.col_offset,
            self._type_only_depth > 0))

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            self._add(alias.name, node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.level:
            # Resolve relative imports against this module's package.
            base = self.module.split(".")
            base = base[:len(base) - node.level]
            target = ".".join([self.package] + base)
            if node.module:
                self._add(target + "." + node.module, node)
            else:
                # ``from . import x``: the names are sibling modules.
                for alias in node.names:
                    self._add(target + "." + alias.name, node)
        elif node.module == self.package:
            # ``from repro import sim``: the names are top-level submodules.
            for alias in node.names:
                self._add(self.package + "." + alias.name, node)
        elif node.module:
            self._add(node.module, node)

    def visit_If(self, node: ast.If) -> None:
        if self._is_type_checking(node.test):
            self._type_only_depth += 1
            for child in node.body:
                self.visit(child)
            self._type_only_depth -= 1
            for child in node.orelse:
                self.visit(child)
        else:
            self.generic_visit(node)

    @staticmethod
    def _is_type_checking(test: ast.AST) -> bool:
        return ((isinstance(test, ast.Name) and test.id == "TYPE_CHECKING")
                or (isinstance(test, ast.Attribute)
                    and test.attr == "TYPE_CHECKING"))


def _package_modules(package_root: Path) -> List[Tuple[str, Path]]:
    """(package-relative module name, file) for every module in the package."""
    modules = []
    for file in sorted(package_root.rglob("*.py")):
        if "__pycache__" in file.parts:
            continue
        rel = file.relative_to(package_root).with_suffix("")
        modules.append((".".join(rel.parts), file))
    return modules


def check_layering(package_root: Path,
                   package: Optional[str] = None,
                   layer_dag: Optional[Dict[str, Optional[Set[str]]]] = None,
                   type_only: Optional[Dict[str, Set[str]]] = None,
                   module_exceptions: Optional[Dict[str, Set[str]]] = None,
                   ) -> List[Finding]:
    """Check every module under ``package_root`` against the layer DAG.

    ``package_root`` is the directory of the package itself (the one
    containing ``__init__.py``); ``package`` defaults to its name.  The
    default policy tables describe the ``repro`` tree; tests pass
    fixture trees with the same tables to prove violations are caught.
    """
    package_root = Path(package_root)
    if package is None:
        package = package_root.name
    dag = DEFAULT_LAYER_DAG if layer_dag is None else layer_dag
    type_ok = DEFAULT_TYPE_ONLY if type_only is None else type_only
    waivers = (DEFAULT_MODULE_EXCEPTIONS if module_exceptions is None
               else module_exceptions)

    findings: List[Finding] = []
    for module, file in _package_modules(package_root):
        try:
            tree = ast.parse(file.read_text(encoding="utf-8"),
                             filename=str(file))
        except SyntaxError as exc:
            findings.append(Finding(
                rule="DET000", path=str(file), line=exc.lineno or 1,
                col=exc.offset or 0, message=f"syntax error: {exc.msg}"))
            continue
        layer = _module_layer(module)
        allowed = dag.get(layer, set())
        if allowed is None:  # unrestricted composition root
            continue
        visitor = _ImportVisitor(package, module)
        visitor.visit(tree)
        for edge in visitor.edges:
            if edge.target in LAYERLESS_MODULES:
                continue
            target_layer = _module_layer(edge.target)
            if target_layer == layer or target_layer in allowed:
                continue
            if edge.target in waivers.get(layer, set()):
                continue
            if target_layer in type_ok.get(layer, set()):
                if edge.type_only:
                    continue
                findings.append(Finding(
                    rule="LAY003", path=str(file), line=edge.line,
                    col=edge.col,
                    message=f"{layer} may import {target_layer} for typing "
                            f"only; move the import of {package}.{edge.target} "
                            f"under TYPE_CHECKING"))
                continue
            if layer == "campaign" and target_layer == "experiments":
                findings.append(Finding(
                    rule="LAY002", path=str(file), line=edge.line,
                    col=edge.col,
                    message=f"campaign may reach experiments only via "
                            f"{package}.experiments.runner, not "
                            f"{package}.{edge.target}"))
                continue
            findings.append(Finding(
                rule="LAY001", path=str(file), line=edge.line, col=edge.col,
                message=f"layer {layer!r} must not import layer "
                        f"{target_layer!r} ({package}.{edge.target}); "
                        f"declared DAG: {layer} -> "
                        f"{{{', '.join(sorted(allowed)) or 'nothing'}}}"))
    return findings


def find_package_roots(paths: Sequence[Path], package: str = "repro"
                       ) -> List[Path]:
    """Locate ``package`` directories under the given search paths."""
    roots: List[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.name == package and (entry / "__init__.py").is_file():
            roots.append(entry)
            continue
        if entry.is_dir():
            candidate = entry / package
            if (candidate / "__init__.py").is_file():
                roots.append(candidate)
    return sorted(set(roots))
