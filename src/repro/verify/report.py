"""Aggregate verification report: CDG certification + lint findings.

:func:`verify_config` is the one-call entry point used by the ``verify``
CLI subcommand, the ``SimParams(verify=True)`` pre-flight gate in the
simulation engine, and Algorithm 1's finalization check.  It packages a
:class:`~repro.verify.cdg.CdgResult` and the linter's
:class:`~repro.verify.lint.Finding` list into a :class:`VerifyReport`
renderable as text or JSON.  The CDG result is the route table's
certificate, built once per configuration however often that is asked
(every load point of a verify-gated sweep asks); lint, which samples
pairs by ``seed``, runs on every call.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.routing.pathset import AllVlbPolicy, PathPolicy
from repro.sim.params import SimParams
from repro.topology.dragonfly import Dragonfly
from repro.verify.cdg import CdgResult, certify_deadlock_freedom
from repro.verify.lint import Finding, lint_pathset

__all__ = ["VerifyReport", "verify_config"]

# a broken config can produce tens of thousands of findings; keep the
# text rendering readable (to_dict/to_json always carry everything)
_MAX_RENDERED_FINDINGS = 25


@dataclass
class VerifyReport:
    """Everything one static verification run established."""

    topo: str
    policy: str
    scheme: str
    routing: str
    num_vcs: int
    cdg: Optional[CdgResult]
    findings: List[Finding]

    @property
    def errors(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "error"]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self.findings if f.severity == "warning"]

    @property
    def passed(self) -> bool:
        """No dependency cycle and no error-severity lint finding."""
        cdg_ok = self.cdg is None or self.cdg.deadlock_free
        return cdg_ok and not self.errors

    def to_text(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"repro.verify -- {self.topo}  policy={self.policy}  "
            f"scheme={self.scheme}  routing={self.routing}  "
            f"vcs={self.num_vcs}"
        ]
        if self.cdg is None:
            lines.append("  deadlock: skipped")
        else:
            lines.append(f"  deadlock: {self.cdg.describe()}")
            if self.cdg.cycle is not None:
                lines.append("  dependency cycle (each waits on the next):")
                for ch, vc in self.cdg.cycle:
                    kind = "global" if ch.is_global else "local"
                    slot = f" slot {ch.slot}" if ch.is_global else ""
                    lines.append(
                        f"    {kind} {ch.src}->{ch.dst}{slot} @ vc {vc}"
                    )
        lines.append(
            f"  lint: {len(self.errors)} error(s), "
            f"{len(self.warnings)} warning(s)"
        )
        shown = self.findings[:_MAX_RENDERED_FINDINGS]
        lines.extend(f"    {f}" for f in shown)
        omitted = len(self.findings) - len(shown)
        if omitted:
            lines.append(
                f"    ... {omitted} more finding(s) omitted "
                f"(JSON output carries all of them)"
            )
        lines.append(f"RESULT: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable summary (stable keys, machine-readable)."""
        cdg: Optional[Dict[str, Any]] = None
        if self.cdg is not None:
            cdg = {
                "deadlock_free": self.cdg.deadlock_free,
                "certified": self.cdg.certified,
                "exhaustive": self.cdg.exhaustive,
                "num_nodes": self.cdg.num_nodes,
                "num_edges": self.cdg.num_edges,
                "num_paths": self.cdg.num_paths,
                "cycle": None
                if self.cdg.cycle is None
                else [
                    {
                        "src": ch.src,
                        "dst": ch.dst,
                        "slot": ch.slot,
                        "vc": vc,
                    }
                    for ch, vc in self.cdg.cycle
                ],
            }
        return {
            "topo": self.topo,
            "policy": self.policy,
            "scheme": self.scheme,
            "routing": self.routing,
            "num_vcs": self.num_vcs,
            "passed": self.passed,
            "cdg": cdg,
            "findings": [
                {
                    "rule": f.rule,
                    "severity": f.severity,
                    "location": f.location,
                    "message": f.message,
                }
                for f in self.findings
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _default_num_vcs(topo: Dragonfly, scheme: str, routing: str) -> int:
    if scheme == "none":
        return 1
    params = SimParams(vc_scheme=scheme)
    return params.vcs_required(routing, topo.max_local_hops)


def verify_config(
    topo: Dragonfly,
    policy: Optional[PathPolicy] = None,
    *,
    scheme: str = "won",
    routing: str = "par",
    num_vcs: Optional[int] = None,
    seed: int = 0,
    rules: Optional[Sequence[str]] = None,
    run_cdg: bool = True,
    run_lint: bool = True,
    max_pairs: Optional[int] = 40,
) -> VerifyReport:
    """Statically verify a ``(topology, path set, VC scheme)`` configuration.

    Certifies deadlock freedom (``run_cdg``: the route table's
    certificate of this policy, scheme and routing, its channel
    dependency graph built on the first ask only), then lints the
    sampled path set (``run_lint``, restricted to ``rules`` when given).
    ``num_vcs`` defaults to the scheme's requirement for ``routing`` on
    this topology.  On topologies too large for exhaustive dependency
    enumeration the CDG falls back to a sampled build and the result is
    flagged non-exhaustive.
    """
    policy = policy if policy is not None else AllVlbPolicy()
    base = routing.lower().removeprefix("t-")
    vcs = (
        num_vcs
        if num_vcs is not None and num_vcs > 0
        else _default_num_vcs(topo, scheme, base)
    )
    cdg: Optional[CdgResult] = None
    if run_cdg:
        cdg = certify_deadlock_freedom(
            topo, policy, scheme=scheme, routing=base, seed=seed
        )
    findings: List[Finding] = []
    if run_lint:
        findings = lint_pathset(
            topo,
            policy,
            scheme=scheme,
            routing=base,
            num_vcs=vcs,
            rules=rules,
            max_pairs=max_pairs,
            seed=seed,
        )
    return VerifyReport(
        topo=str(topo),
        policy=policy.describe(),
        scheme=scheme,
        routing=base,
        num_vcs=vcs,
        cdg=cdg,
        findings=findings,
    )
