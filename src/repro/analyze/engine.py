"""The analysis driver: collect sources, run rules, audit suppressions.

:func:`analyze_tree` is the one-call entry point used by the ``analyze``
CLI subcommand, the CI gate, and the mutation-corpus tests.  It walks
the configured paths, parses every module once, runs the registered
module- and project-scope rules (:data:`repro.analyze.registry
.ANALYZE_RULES`), then applies the two filtering layers in order:

1. **Inline suppressions** -- ``# repro: allow[RULE]: reason`` drops the
   finding and is itself audited: a suppression that never fires is an
   ANA001 error (it is hiding nothing and must be deleted), one without
   a reason is ANA002 (the audit trail is the point).
2. **The committed baseline** -- grandfathered findings move to the
   report's ``baselined`` list; anything new stays active and fails the
   gate.
"""

from __future__ import annotations

import os
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analyze.baseline import apply_baseline, load_baseline
from repro.analyze.context import (
    AnalyzeConfig,
    ModuleUnit,
    ProjectContext,
)
from repro.analyze.findings import AnalyzeReport, Finding
from repro.analyze.registry import ANALYZE_RULES, AnalyzeRule, rule

# rule modules register themselves on import
from repro.analyze import cacheid as _cacheid  # noqa: F401
from repro.analyze import determinism as _determinism  # noqa: F401
from repro.analyze import reference as _reference  # noqa: F401
from repro.analyze import reghygiene as _reghygiene  # noqa: F401

__all__ = ["analyze_tree", "build_context", "collect_units"]


# ---------------------------------------------------------------------------
# Engine-emitted rules (registered for the catalog; no checker)
# ---------------------------------------------------------------------------
@rule(
    "ANA001",
    "unused-suppression",
    family="analyzer",
    severity="error",
    summary=(
        "a '# repro: allow[RULE]' comment whose rule produced no "
        "finding on that line: it suppresses nothing and would silently "
        "mask a future regression elsewhere on the line"
    ),
    hint="delete the stale allow-comment",
    scope="engine",
)
def _ana001() -> Iterable[Finding]:  # pragma: no cover - engine-emitted
    return []


@rule(
    "ANA002",
    "unjustified-suppression",
    family="analyzer",
    severity="error",
    summary=(
        "a '# repro: allow[RULE]' comment without a ': reason' "
        "justification -- audited suppressions are the contract that "
        "keeps over-approximating rules honest"
    ),
    hint="append ': <one-line reason why order/identity cannot leak>'",
    scope="engine",
)
def _ana002() -> Iterable[Finding]:  # pragma: no cover - engine-emitted
    return []


# ---------------------------------------------------------------------------
# Source collection
# ---------------------------------------------------------------------------
def _iter_py_files(
    root: str, paths: Sequence[str], exclude: Tuple[str, ...]
) -> List[str]:
    """Absolute paths of every ``.py`` file under the given paths."""
    found: List[str] = []
    for path in paths:
        absolute = (
            path if os.path.isabs(path) else os.path.join(root, path)
        )
        if os.path.isfile(absolute):
            found.append(absolute)
            continue
        for dirpath, dirnames, filenames in os.walk(absolute):
            dirnames[:] = sorted(
                d for d in dirnames if d not in exclude
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    return found


def collect_units(config: AnalyzeConfig) -> List[ModuleUnit]:
    root = os.path.abspath(config.root)
    units: List[ModuleUnit] = []
    for absolute in _iter_py_files(root, config.paths, config.exclude):
        rel = os.path.relpath(absolute, root).replace(os.sep, "/")
        try:
            with open(absolute, encoding="utf-8") as fh:
                source = fh.read()
        except OSError:
            continue  # raced deletion: nothing to analyze
        units.append(ModuleUnit.parse(rel, source))
    return units


def build_context(config: AnalyzeConfig) -> ProjectContext:
    return ProjectContext(config=config, units=collect_units(config))


# ---------------------------------------------------------------------------
# Rule execution + filtering layers
# ---------------------------------------------------------------------------
def _selected_rules(config: AnalyzeConfig) -> List[AnalyzeRule]:
    if config.rules is None:
        return list(ANALYZE_RULES)
    return list(ANALYZE_RULES.select(config.rules))


def _run_rules(
    ctx: ProjectContext, rules: Sequence[AnalyzeRule]
) -> List[Finding]:
    findings: List[Finding] = []
    for unit in ctx.units:
        if unit.syntax_error is not None:
            findings.append(
                Finding(
                    rule="ANA000",
                    severity="error",
                    path=unit.path,
                    line=0,
                    message=f"file does not parse: {unit.syntax_error}",
                    hint="fix the syntax error",
                )
            )
    for entry in rules:
        if entry.scope == "module":
            for unit in ctx.iter_parsed():
                findings.extend(entry.check(unit, ctx))
        elif entry.scope == "project":
            findings.extend(entry.check(ctx))
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def _apply_suppressions(
    ctx: ProjectContext, findings: List[Finding]
) -> Tuple[List[Finding], List[Finding]]:
    """(kept, suppressed); marks which suppressions were used."""
    kept: List[Finding] = []
    suppressed: List[Finding] = []
    units = {unit.path: unit for unit in ctx.units}
    for finding in findings:
        unit = units.get(finding.path)
        sup = (
            unit.suppression_for(finding.rule, finding.line)
            if unit is not None and finding.line
            else None
        )
        if sup is not None:
            sup.used.add(finding.rule)
            suppressed.append(finding)
        else:
            kept.append(finding)
    return kept, suppressed


def _audit_suppressions(
    ctx: ProjectContext, ran: Set[str]
) -> List[Finding]:
    ana001 = ANALYZE_RULES.get("ANA001")
    ana002 = ANALYZE_RULES.get("ANA002")
    findings: List[Finding] = []
    for unit in ctx.units:
        for sup in unit.suppressions:
            context = unit.line_text(sup.line)
            if not sup.reason:
                findings.append(
                    ana002.finding(
                        unit.path, sup.line,
                        f"suppression allow[{','.join(sup.codes)}] has "
                        f"no justification",
                        context=context,
                    )
                )
            for code in sup.codes:
                # a suppression is only provably stale when its rule
                # actually ran this pass (--rules subsets must not
                # condemn allows for the rules they skipped)
                if code in ran and code not in sup.used:
                    findings.append(
                        ana001.finding(
                            unit.path, sup.line,
                            f"suppression allow[{code}] matched no "
                            f"finding",
                            context=context,
                        )
                    )
    return findings


def analyze_tree(
    config: Optional[AnalyzeConfig] = None,
) -> AnalyzeReport:
    """Run the configured rules over the configured tree."""
    config = config if config is not None else AnalyzeConfig()
    ctx = build_context(config)
    rules = _selected_rules(config)
    raw = _run_rules(ctx, rules)
    kept, suppressed = _apply_suppressions(ctx, raw)
    kept.extend(_audit_suppressions(ctx, {r.code for r in rules}))
    kept.sort(key=lambda f: (f.path, f.line, f.rule))
    stale: List[Dict[str, Any]] = []
    baselined: List[Finding] = []
    if config.baseline_path is not None:
        entries = load_baseline(config.baseline_path)
        kept, baselined, stale = apply_baseline(kept, entries)
    return AnalyzeReport(
        root=os.path.abspath(config.root),
        findings=kept,
        baselined=baselined,
        suppressed=suppressed,
        stale_baseline=stale,
        files_checked=len(ctx.units),
        rules_run=[r.code for r in rules],
    )
