"""repro.analyze: AST-based invariant checks for the repro tree.

A pluggable rule registry (:data:`repro.analyze.registry.ANALYZE_RULES`,
same idiom as the spec registries) over four rule families:

* **determinism** (DET1xx) -- unordered iteration feeding ordered
  output, unseeded RNGs, wallclock/hash-order values in sim paths;
* **cache identity** (CACHE2xx) -- every spec/params field classified
  identity-bearing or identity-neutral, and the whole identity surface
  pinned against a committed snapshot;
* **registry hygiene** (REG3xx) -- registered classes ship codecs and
  are constructed through their registries;
* **reference only** (REF4xx) -- the parity references
  (``model_throughput``, a directly built ``Network``) stay out of
  production modules.

Run it as ``python -m repro analyze``; findings can be suppressed
inline (``# repro: allow[RULE]: reason``, audited) or grandfathered in
a committed baseline.  See ``docs/analysis.md``.
"""

from repro.analyze.context import (
    AnalyzeConfig,
    ModuleUnit,
    ProjectContext,
)
from repro.analyze.engine import analyze_tree, build_context
from repro.analyze.findings import AnalyzeReport, Finding
from repro.analyze.registry import (
    ANALYZE_RULES,
    AnalyzeError,
    AnalyzeRule,
)

__all__ = [
    "ANALYZE_RULES",
    "AnalyzeConfig",
    "AnalyzeError",
    "AnalyzeReport",
    "AnalyzeRule",
    "Finding",
    "ModuleUnit",
    "ProjectContext",
    "analyze_tree",
    "build_context",
]
