"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that only re-exports declares a ``public name ->
defining submodule`` table and binds the two hooks this module builds
from it, so importing the package costs nothing and ``pkg.Name`` /
``from pkg import Name`` import exactly the submodule that defines
``Name`` (DESIGN.md §6, "Import time: describe vs. execute").  Stdlib
only: every layer's ``__init__`` may import it.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(namespace: Dict[str, Any], exports: Mapping[str, str]
                 ) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for the package whose globals are
    ``namespace``.  A resolved object is stored in ``namespace``, so the
    hook runs once per name and later accesses are plain dict hits."""
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        submodule = exports.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
