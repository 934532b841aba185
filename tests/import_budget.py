"""What a cached ``repro campaign`` may not import, by module name.

One predicate, two users: ``tests/test_import_budget.py`` applies it to
``sys.modules`` after a warm run, CI's ``campaign-smoke`` to the names in
a ``python -X importtime`` log.  Stdlib only, so the CI step needs no
test dependency.  Names and counts, never time.  :func:`fresh_python`
is the interpreter both test files start to look at ``sys.modules``.

The warm run is counted under ``python -S``.  Without it the count
holds whatever ``site`` ran before ``repro`` was imported: a ``.pth``
start-up hook in ``site-packages`` (one that imports ``certifi``, say)
loads ``pathlib``, ``zipfile``, ``tempfile``, ``urllib.parse`` and more
at every start, and those belong to the machine, not to the program.
``repro`` has no runtime dependency and ``PYTHONPATH`` still puts it on
``sys.path``, so under ``-S`` the names and the count are the program's.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterable, List, Sequence

REPO = Path(__file__).resolve().parent.parent

#: the executing tier, package by package (DESIGN.md §6)
FORBIDDEN_PACKAGES = ("repro.sim", "repro.net", "repro.tcp", "repro.flowsim",
                      "repro.analysis", "repro.validate")
#: a package whose ``__init__`` and one declarative module are allowed
ALLOWED_IN = {"repro.cc": "repro.cc.base", "repro.core": "repro.core.units"}
FORBIDDEN_MODULES = frozenset({
    "repro.experiments.runner", "repro.metrics.collector",
    "http.server", "ssl", "multiprocessing",
    "concurrent.futures.process"})

#: at most this many modules, and this many of them ``repro.*``, per warm
#: run under ``-S``: 140 less ``site`` and ``_sitebuiltins``, the two names
#: a hook-free ``site`` adds (the run holds 128 under ``-S``, 130 with one)
MAX_MODULES = 138
MAX_REPRO_MODULES = 25


def _is_forbidden(name: str) -> bool:
    package = name.rpartition(".")[0]
    if package in ALLOWED_IN:
        return name != ALLOWED_IN[package]
    return name in FORBIDDEN_MODULES or any(
        name == p or name.startswith(p + ".") for p in FORBIDDEN_PACKAGES)


def forbidden(modules: Iterable[str]) -> List[str]:
    """The names among ``modules`` a warm campaign must not have loaded."""
    return sorted(name for name in modules if _is_forbidden(name))


def importtime_modules(log: str) -> List[str]:
    """Module names in a ``-X importtime`` log (stderr of the run)."""
    return re.findall(r"^import time:\s+\d+ \|\s+\d+ \| +([\w.]+)$", log,
                      re.MULTILINE)


def fresh_python(*argv: str,
                 path: Sequence[Path] = ()) -> subprocess.CompletedProcess:
    """``python *argv`` in a new interpreter that can import ``repro``,
    with ``path`` ahead of ``src`` on its ``PYTHONPATH``; asserts it
    exited 0."""
    pythonpath = os.pathsep.join(map(str, [*path, REPO / "src"]))
    env = dict(os.environ, PYTHONPATH=pythonpath, PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, *argv], env=env, cwd=REPO,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc
