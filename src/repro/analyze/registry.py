"""Pluggable rule registry for the static analyzer.

Mirrors the TRAFFIC/POLICY/ROUTING registry idiom of
:mod:`repro.spec.registry`: every rule registers one
:class:`AnalyzeRule` carrying its finding code, severity, family,
one-line summary, fix-it hint, and checker callable.  Consumers -- the
engine, the CLI's ``--rules``/``--list-rules``, the docs generator in
``docs/analysis.md`` -- look rules up here, so adding a rule is a
registration, not new wiring code.

This module is deliberately dependency-free inside the package (it
imports only :mod:`repro.analyze.findings`), so rule modules can import
it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, Tuple

from repro.analyze.findings import Finding

__all__ = [
    "ANALYZE_RULES",
    "AnalyzeError",
    "AnalyzeRule",
    "RuleRegistry",
    "rule",
]


class AnalyzeError(ValueError):
    """A rule name, baseline file, or snapshot could not be interpreted."""


# module-scope checkers receive (unit, context); project-scope checkers
# receive (context,); engine-scope rules are emitted by the engine itself
# (suppression auditing) and carry no checker
Checker = Callable[..., Iterable[Finding]]


def _no_checker() -> Iterable[Finding]:  # pragma: no cover - guard only
    raise AnalyzeError("engine-scope rules are emitted by the engine")


@dataclass(frozen=True)
class AnalyzeRule:
    """One registered rule: code + metadata + checker callable."""

    code: str  # e.g. "DET101" (the finding code)
    name: str  # short kebab-case name, e.g. "set-iteration"
    # "determinism" | "cache-identity" | "registry-hygiene" |
    # "reference-only" | "analyzer"
    family: str
    severity: str  # default severity of its findings
    summary: str  # one-line description (rule catalog material)
    hint: str  # generic fix-it hint
    # "module": checked once per source file; "project": checked once
    # against the whole tree; "engine": emitted by the engine itself
    scope: str = "module"
    check: Checker = _no_checker

    def finding(
        self,
        path: str,
        line: int,
        message: str,
        *,
        context: str = "",
        hint: str = "",
    ) -> Finding:
        """A finding of this rule (severity/hint default to the rule's)."""
        return Finding(
            rule=self.code,
            severity=self.severity,
            path=path,
            line=line,
            message=message,
            hint=hint if hint else self.hint,
            context=context,
        )


class RuleRegistry:
    """An ordered mapping of rule code -> :class:`AnalyzeRule`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._rules: Dict[str, AnalyzeRule] = {}

    def register(self, entry: AnalyzeRule) -> AnalyzeRule:
        if entry.code in self._rules:
            raise ValueError(
                f"{self.name}: rule {entry.code!r} is already registered"
            )
        if entry.severity not in ("error", "warning"):
            raise ValueError(
                f"{self.name}: rule {entry.code} has unknown severity "
                f"{entry.severity!r}"
            )
        self._rules[entry.code] = entry
        return entry

    def codes(self) -> Tuple[str, ...]:
        """Registered rule codes in registration order."""
        return tuple(self._rules)

    def get(self, code: str) -> AnalyzeRule:
        entry = self._rules.get(code.upper())
        if entry is None:
            raise AnalyzeError(
                f"unknown rule {code!r}: choose from "
                f"{', '.join(self.codes())}"
            )
        return entry

    def select(self, codes: Iterable[str]) -> Tuple[AnalyzeRule, ...]:
        """Resolve a code subset (unknown codes raise AnalyzeError)."""
        return tuple(self.get(c) for c in codes)

    def __contains__(self, code: object) -> bool:
        return code in self._rules

    def __iter__(self) -> Iterator[AnalyzeRule]:
        return iter(self._rules.values())

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}({', '.join(self.codes())})"


ANALYZE_RULES = RuleRegistry("ANALYZE_RULES")


def rule(
    code: str,
    name: str,
    *,
    family: str,
    severity: str,
    summary: str,
    hint: str,
    scope: str = "module",
) -> Callable[[Checker], Checker]:
    """Decorator registering ``check`` as an :class:`AnalyzeRule`."""

    def decorate(check: Checker) -> Checker:
        ANALYZE_RULES.register(
            AnalyzeRule(
                code=code,
                name=name,
                family=family,
                severity=severity,
                summary=summary,
                hint=hint,
                scope=scope,
                check=check,
            )
        )
        return check

    return decorate
