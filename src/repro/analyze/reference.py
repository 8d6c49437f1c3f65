"""Reference-only rule (REF4xx): parity oracles stay out of production.

Some names in the tree exist only so tests can hold production code to
them: ``model_throughput`` (the LP reference assembly; production solves
through :class:`~repro.model.fastpath.FastModel`) and the per-path
enumerator behind it (``compute_pair_stats`` / ``PathStatsCache``;
production reads its pair blocks from the route table).  The engines
have one home too: a run's network is picked by its lane in
``repro.sim.engine.Run`` (the wheel ``Network`` or the native
:class:`~repro.sim.array.ArrayNetwork`), and a caller that steps a
network itself gets the wheel through ``build_network``, next to it.
``docs/architecture.md`` says so in one place; this rule keeps the
statement true: a new production import of one of the former, or a
network constructed anywhere else, is a second pipeline growing back.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from repro.analyze.context import ModuleUnit, ProjectContext
from repro.analyze.findings import Finding
from repro.analyze.registry import ANALYZE_RULES, rule

__all__: List[str] = []

# the modules that may import each reference name: its home, and for
# the enumerator the reference assembly it feeds
_IMPORT_HOMES = {
    "model_throughput": ("repro.model.lp_model",),
    "compute_pair_stats": ("repro.model.pathstats", "repro.model.lp_model"),
    "PathStatsCache": ("repro.model.pathstats", "repro.model.lp_model"),
}
_NETWORK_HOME = "repro.sim.engine"
_ENGINES = ("Network", "ArrayNetwork")


@rule(
    "REF401",
    "reference-only-in-production",
    family="reference-only",
    severity="warning",
    summary=(
        "a production module imports model_throughput, compute_pair_stats "
        "or PathStatsCache (kept only as parity references for FastModel), "
        "or constructs Network(...) / ArrayNetwork(...) outside "
        "repro.sim.engine, where a run's lane picks its engine "
        "(docs/architecture.md)"
    ),
    hint=(
        "solve through repro.model.FastModel (pair statistics: its "
        "BlockCache) / run simulations through repro.sim.engine.Run, and "
        "get a network to step yourself from repro.sim.build_network; a "
        "deliberate reference use (a re-export for the parity tests) "
        "takes an allow-marker"
    ),
)
def check_reference_only(
    unit: ModuleUnit, ctx: ProjectContext
) -> Iterator[Finding]:
    assert unit.tree is not None
    del ctx
    entry = ANALYZE_RULES.get("REF401")
    for node in ast.walk(unit.tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                homes = _IMPORT_HOMES.get(alias.name)
                if homes is None or unit.module in homes:
                    continue
                yield entry.finding(
                    unit.path, node.lineno,
                    f"{alias.name} belongs to the LP parity reference, not "
                    f"to a production pipeline",
                    context=unit.line_text(node.lineno),
                )
        elif isinstance(node, ast.Call) and unit.module != _NETWORK_HOME:
            func = node.func
            name = (
                func.id
                if isinstance(func, ast.Name)
                else func.attr
                if isinstance(func, ast.Attribute)
                else None
            )
            if name in _ENGINES:
                yield entry.finding(
                    unit.path, node.lineno,
                    f"{name}(...) constructed outside repro.sim.engine: "
                    f"a run's lane picks its engine there",
                    context=unit.line_text(node.lineno),
                )
