"""Static analysis and runtime sanitization for the reproduction.

Two fragile invariants hold the whole reproduction together: bit-for-bit
determinism (the figure harnesses and the content-addressed campaign
cache assume identical results for identical seeds) and strict layering
(SUSS stays behind the ``tcp_congestion_ops``-style ``repro.cc`` API).
This package makes both enforceable:

* :mod:`repro.analysis.lint` — AST determinism rules (DET0xx);
* :mod:`repro.analysis.layering` — import-graph DAG checker (LAY0xx);
* :mod:`repro.analysis.sanitize` — runtime invariant checks (SAN0xx),
  wired into the engine/net/tcp layers behind ``REPRO_SANITIZE=1``;
* :mod:`repro.analysis.cli` — the ``repro lint`` subcommand.

``repro.analysis.sanitize`` imports nothing from other repro layers, so
even :mod:`repro.sim` may depend on it without inverting the layer DAG.
"""

from repro._lazy import lazy_exports

#: public name -> defining submodule, in ``__all__`` order
_EXPORTS = {
    "RULES": "findings",
    "Finding": "findings",
    "explain": "findings",
    "render_json": "findings",
    "render_text": "findings",
    "DEFAULT_LAYER_DAG": "layering",
    "check_layering": "layering",
    "find_package_roots": "layering",
    "applicable_rules": "lint",
    "lint_paths": "lint",
    "lint_source": "lint",
    "ENV_VAR": "sanitize",
    "SanitizeError": "sanitize",
    "SimSanitizer": "sanitize",
    "from_env": "sanitize",
    "sanitize_enabled": "sanitize",
}
__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
