"""Tests for the path-set linter, the verify report, and its wiring into
Algorithm 1 and the simulation engine."""

import json

import pytest

from repro.core import compute_tvlb
from repro.routing.pathset import (
    AllVlbPolicy,
    ExplicitPathSet,
    HopClassPolicy,
)
from repro.routing.vlb import VlbDescriptor
from repro.sim import SimParams
from repro.sim.engine import simulate
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom
from repro.verify import LINT_RULES, Finding, lint_pathset, verify_config


@pytest.fixture(scope="module")
def topo():
    return Dragonfly(2, 4, 2, 5)


def _lint(topo, policy, rules, **kw):
    kw.setdefault("max_pairs", None)  # deterministic: lint every pair
    return lint_pathset(topo, policy, rules=rules, **kw)


def _mid(topo, group):
    """Any switch of ``group`` usable as a VLB intermediate."""
    return topo.switch_id(group, 0)


class TestFindingRecord:
    def test_str_format(self):
        f = Finding("vc-overflow", "error", "pair (0->8)", "too few VCs")
        assert str(f) == "[error] vc-overflow @ pair (0->8): too few VCs"

    def test_registry_names(self):
        assert set(LINT_RULES) == {
            "hop-validity",
            "slot-range",
            "min-minimality",
            "hop-class",
            "vc-overflow",
            "balance",
            "vlb-reachability",
        }

    def test_unknown_rule_rejected(self, topo):
        with pytest.raises(ValueError, match="unknown lint rule"):
            lint_pathset(topo, rules=["hop-validity", "telepathy"])


class TestHopValidity:
    def test_pass(self, topo):
        assert _lint(topo, AllVlbPolicy(), ["hop-validity"], max_pairs=20) == []

    def test_mid_in_endpoint_group_flagged(self, topo):
        bad = ExplicitPathSet(
            paths={(0, 8): [VlbDescriptor(mid=1, slot1=0, slot2=0)]}
        )
        findings = _lint(topo, bad, ["hop-validity"])
        assert findings and all(f.rule == "hop-validity" for f in findings)
        assert findings[0].severity == "error"
        assert "pair (0->8)" in findings[0].location
        assert "mid=1" in findings[0].location


class TestSlotRange:
    def test_pass(self, topo):
        assert _lint(topo, AllVlbPolicy(), ["slot-range"], max_pairs=20) == []

    def test_out_of_range_slot_flagged(self, topo):
        bad = ExplicitPathSet(
            paths={(0, 8): [VlbDescriptor(mid=_mid(topo, 1), slot1=99, slot2=0)]}
        )
        findings = _lint(topo, bad, ["slot-range"])
        assert findings
        assert {f.rule for f in findings} == {"slot-range"}
        assert any("slot 99 out of range" in f.message for f in findings)


class TestMinMinimality:
    def test_pass(self, topo):
        assert _lint(topo, AllVlbPolicy(), ["min-minimality"], max_pairs=20) == []

    def test_detouring_local_route_flagged(self):
        class DetourDragonfly(Dragonfly):
            """Canonical local routes take a pointless intermediate hop."""

            def local_route(self, u, v):
                if self.group_of(u) != self.group_of(v):
                    raise ValueError("not same group")
                detour = next(
                    s for s in self.local_neighbors(u) if s != v
                )
                return [detour]

        topo = DetourDragonfly(2, 4, 2, 5)
        findings = _lint(topo, AllVlbPolicy(), ["min-minimality"], max_pairs=10)
        assert findings
        assert all(f.rule == "min-minimality" for f in findings)
        assert any("takes 2 hops" in f.message and "distance is 1" in f.message
                   for f in findings)


class TestHopClass:
    def test_pass(self, topo):
        pol = HopClassPolicy(4, 0.5, seed=2)
        assert _lint(topo, pol, ["hop-class"], max_pairs=20) == []

    def test_enumerate_contains_mismatch_flagged(self, topo):
        class OverEnumeratingPolicy(HopClassPolicy):
            """Enumerates every VLB path while contains() keeps its
            hop-class restriction -- the inconsistency the LP model and
            the simulator must never see."""

            def iter_descriptors(self, topo, src, dst):
                return AllVlbPolicy().iter_descriptors(topo, src, dst)

        findings = _lint(
            topo, OverEnumeratingPolicy(4, 0.0), ["hop-class"], max_pairs=5
        )
        assert findings
        assert all(f.rule == "hop-class" and f.severity == "error"
                   for f in findings)
        assert "contains() rejects" in findings[0].message


class TestVcOverflow:
    def test_pass_at_scheme_requirement(self, topo):
        vcs = SimParams().vcs_required("par")
        assert _lint(
            topo, AllVlbPolicy(), ["vc-overflow"],
            num_vcs=vcs, routing="par", max_pairs=20,
        ) == []

    def test_too_few_vcs_flagged(self, topo):
        findings = _lint(
            topo, AllVlbPolicy(), ["vc-overflow"],
            num_vcs=2, routing="par", max_pairs=5,
        )
        assert findings and {f.rule for f in findings} == {"vc-overflow"}

    def test_par_fragment_needs_one_extra_level(self, topo):
        # 4 VCs fit every unrevised won path; only the PAR-revised
        # fragments overflow, so every finding must say so
        findings = _lint(
            topo, AllVlbPolicy(), ["vc-overflow"],
            num_vcs=4, routing="par", max_pairs=10,
        )
        assert findings
        assert all("PAR-revised fragment" in f.message for f in findings)
        # ...and under plain UGAL the same budget is clean
        assert _lint(
            topo, AllVlbPolicy(), ["vc-overflow"],
            num_vcs=4, routing="ugal-l", max_pairs=10,
        ) == []


class TestBalance:
    def test_pass_single_path_per_pair(self, topo):
        # one descriptor per pair: every used channel has probability 1
        table = {}
        for d in range(4, 8):
            table[(0, d)] = [VlbDescriptor(mid=_mid(topo, 2), slot1=0, slot2=0)]
        assert _lint(topo, ExplicitPathSet(paths=table), ["balance"]) == []

    def test_skewed_set_flagged(self, topo):
        # pair (0, 8): half the probability mass rides one favourite
        # descriptor (weighted by repetition) while the other half spreads
        # thin -- the favourite's channels run far over the pair's mean
        favourite = VlbDescriptor(mid=topo.switch_id(1, 0), slot1=0, slot2=0)
        tail = [
            VlbDescriptor(mid=topo.switch_id(g, i), slot1=s1, slot2=s2)
            for g in (1, 3, 4)
            for i in range(topo.a)
            for s1 in range(2)
            for s2 in range(2)
            if (g, i, s1, s2) != (1, 0, 0, 0)
        ]
        bad = ExplicitPathSet(paths={(0, 8): [favourite] * len(tail) + tail})
        findings = _lint(topo, bad, ["balance"])
        assert findings
        assert all(f.rule == "balance" and f.severity == "warning"
                   for f in findings)
        assert any("mean usage" in f.message for f in findings)


class TestVlbReachability:
    def test_pass(self, topo):
        assert _lint(
            topo, AllVlbPolicy(), ["vlb-reachability"], max_pairs=20
        ) == []

    def test_empty_pair_flagged(self, topo):
        findings = _lint(topo, ExplicitPathSet(), ["vlb-reachability"],
                         max_pairs=10)
        assert len(findings) == 10
        assert all(f.severity == "warning" for f in findings)
        assert "without any VLB candidate" in findings[0].message


class TestRuleSelection:
    def test_rules_subset_only_runs_selected(self, topo):
        bad = ExplicitPathSet(
            paths={(0, 8): [VlbDescriptor(mid=1, slot1=0, slot2=0)]}
        )
        # hop-validity would flag this pair; a disjoint rule stays silent
        assert _lint(topo, bad, ["min-minimality"]) == []
        assert _lint(topo, bad, ["hop-validity"]) != []

    def test_errors_sort_before_warnings(self, topo):
        bad = ExplicitPathSet(
            paths={(0, 8): [VlbDescriptor(mid=1, slot1=0, slot2=0)]}
        )
        findings = _lint(topo, bad, ["vlb-reachability", "hop-validity"],
                         max_pairs=None)
        severities = [f.severity for f in findings]
        assert "error" in severities and "warning" in severities
        assert severities == sorted(severities)  # error < warning


class TestVerifyConfig:
    def test_paper_config_passes(self, topo):
        report = verify_config(topo, scheme="won", routing="par")
        assert report.passed
        assert report.errors == []
        assert report.cdg is not None and report.cdg.certified
        assert report.num_vcs == SimParams().vcs_required("par")
        text = report.to_text()
        assert "RESULT: PASS" in text and "deadlock: deadlock-free" in text

    def test_failure_renders_cycle(self, topo):
        report = verify_config(topo, scheme="none", run_lint=False)
        assert not report.passed
        text = report.to_text()
        assert "RESULT: FAIL" in text
        assert "dependency cycle (each waits on the next)" in text
        assert "@ vc 0" in text

    def test_json_roundtrip(self, topo):
        report = verify_config(topo, scheme="won", routing="ugal-l")
        data = json.loads(report.to_json())
        assert data["passed"] is True
        assert data["scheme"] == "won" and data["routing"] == "ugal-l"
        assert data["cdg"]["certified"] is True
        assert data["cdg"]["cycle"] is None
        assert isinstance(data["findings"], list)

    def test_skipping_stages(self, topo):
        report = verify_config(topo, run_cdg=False, run_lint=False)
        assert report.cdg is None and report.findings == []
        assert report.passed
        assert "deadlock: skipped" in report.to_text()

    def test_lint_errors_fail_report(self, topo):
        bad = ExplicitPathSet(
            paths={(0, 8): [VlbDescriptor(mid=1, slot1=0, slot2=0)]}
        )
        report = verify_config(topo, bad, max_pairs=None)
        assert report.cdg is not None and report.cdg.deadlock_free
        assert report.errors and not report.passed


def _all_pairs_broken(topo):
    """A policy whose every pair enumerates an unbuildable descriptor."""
    table = {
        (s, d): [VlbDescriptor(mid=s, slot1=0, slot2=0)]
        for s in range(topo.num_switches)
        for d in range(topo.num_switches)
        if s != d
    }
    return ExplicitPathSet(paths=table, label="broken")


class TestEngineGate:
    def test_verified_simulation_runs(self, topo):
        params = SimParams(verify=True, window_cycles=100)
        res = simulate(topo, UniformRandom(topo), 0.05, params=params, seed=1)
        assert res.packets_measured > 0

    def test_broken_policy_blocked_before_simulation(self, topo):
        params = SimParams(verify=True, window_cycles=100)
        with pytest.raises(RuntimeError, match="static verification failed"):
            simulate(
                topo,
                UniformRandom(topo),
                0.05,
                routing="t-ugal-l",
                policy=_all_pairs_broken(topo),
                params=params,
            )

    def test_gate_off_by_default(self, topo):
        # the same broken policy simulates (badly) without the gate: the
        # pre-flight check is opt-in
        assert SimParams().verify is False


class TestAlgorithmFinalization:
    def test_compute_tvlb_attaches_verify_report(self, topo):
        def shortest(policy, label):
            try:
                return -policy.average_hops(topo, 0, topo.a * 2)
            except (ValueError, TypeError):
                return -10.0

        result = compute_tvlb(
            topo, evaluator=shortest, num_type1=2, num_type2=1, seed=0
        )
        assert result.verify_report is not None
        assert result.verify_report.passed
        assert result.verify_report.routing == "par"

    def test_verify_false_skips(self, topo):
        def shortest(policy, label):
            try:
                return -policy.average_hops(topo, 0, topo.a * 2)
            except (ValueError, TypeError):
                return -10.0

        result = compute_tvlb(
            topo, evaluator=shortest, num_type1=2, num_type2=1,
            verify=False, seed=0,
        )
        assert result.verify_report is None


class TestSampleSize:
    @pytest.mark.parametrize("max_pairs", [0, -3])
    def test_empty_sample_rejected(self, topo, max_pairs):
        # linting no pair would pass vacuously
        with pytest.raises(ValueError, match="max_pairs"):
            lint_pathset(topo, max_pairs=max_pairs)
