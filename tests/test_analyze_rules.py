"""Mutation-corpus tests: every rule fires on its seeded historical-bug
fixture and stays silent on the matching clean fixture.

The ``bad/`` fixtures under ``tests/fixtures/analyze`` reintroduce the
exact bug patterns the rules were written against (including the
``_busy_channels`` set-iteration shape the fast engine once shipped);
the ``clean/`` fixtures carry the corrected idiom.  A rule that misses
its bad fixture is broken; one that flags its clean fixture is too
noisy to gate CI.
"""

import os

import pytest

from repro.analyze import AnalyzeConfig, analyze_tree
from repro.analyze.engine import build_context
from repro.analyze.snapshot import identity_surface, save_snapshot

FIXTURES = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "analyze"
)


def run_rule(rule, *paths, root=FIXTURES, snapshot=None):
    rules = (rule,) if isinstance(rule, str) else tuple(rule)
    config = AnalyzeConfig(
        root=root,
        paths=tuple(paths),
        rules=rules,
        snapshot_path=snapshot,
    )
    return analyze_tree(config)


def firing_lines(report, rule):
    return [f.line for f in report.findings if f.rule == rule]


# one (rule, bad fixture, expected count, clean fixture) row per rule
CASES = [
    ("DET101", "bad/det101_set_iteration.py", 1,
     "clean/det101_set_iteration.py"),
    ("DET102", "bad/det102_dict_view.py", 2,
     "clean/det102_dict_view.py"),
    ("DET103", "bad/det103_unseeded_rng.py", 2,
     "clean/det103_unseeded_rng.py"),
    ("DET104", "bad/det104_wallclock.py", 3,
     "clean/det104_wallclock.py"),
    ("DET105", "bad/det105_builtin_hash.py", 1,
     "clean/det105_builtin_hash.py"),
    ("CACHE201", "bad/cache201_identity_dict.py", 3,
     "clean/cache201_identity_dict.py"),
    ("CACHE202", "bad/cache202_spec_fields.py", 2,
     "clean/cache202_spec_fields.py"),
    ("REG302", "bad/reg302_codec.py", 1, "clean/reg302_codec.py"),
    ("REG303", "bad/reg303_topology.py", 1, "clean/reg303_topology.py"),
    ("REF401", "bad/ref401_reference_only.py", 2,
     "clean/ref401_reference_only.py"),
]


@pytest.mark.parametrize(
    "rule,bad,count,clean", CASES, ids=[c[0] for c in CASES]
)
def test_rule_fires_on_bad_fixture(rule, bad, count, clean):
    report = run_rule(rule, bad)
    assert len(firing_lines(report, rule)) == count, report.to_text()


@pytest.mark.parametrize(
    "rule,bad,count,clean", CASES, ids=[c[0] for c in CASES]
)
def test_rule_silent_on_clean_fixture(rule, bad, count, clean):
    report = run_rule(rule, clean)
    assert firing_lines(report, rule) == [], report.to_text()


def test_ref401_covers_the_per_path_enumerator():
    """compute_pair_stats / PathStatsCache feed only the reference: a
    production import fires, a FastModel solve (and its blocks) does
    not."""
    bad = run_rule("REF401", "bad/ref401_per_path_enumerator.py")
    (finding,) = bad.findings
    assert "compute_pair_stats" in finding.context
    clean = run_rule("REF401", "clean/ref401_per_path_enumerator.py")
    assert clean.findings == []


def test_det101_catches_the_busy_channels_shape():
    """The exact PR-2 bug: a set work list scanned in _transmit."""
    report = run_rule("DET101", "bad/det101_set_iteration.py")
    (finding,) = report.findings
    assert finding.rule == "DET101"
    assert "for channel in self._busy_channels" in finding.context
    assert finding.severity == "warning"
    assert finding.hint  # every finding carries a fix-it hint


def test_reg301_fires_across_packages_only():
    bad = run_rule("REG301", "bad")
    assert [f.path for f in bad.findings if f.rule == "REG301"] == [
        "bad/reg301_use/consumer.py"
    ]
    clean = run_rule("REG301", "clean")
    assert firing_lines(clean, "REG301") == []


def test_ana_suppression_audit():
    rules = ("DET101", "DET103", "DET104")
    bad = run_rule(rules, "bad/ana_suppressions.py")
    codes = sorted(f.rule for f in bad.findings)
    # two stale allows (DET103 on the import, DET101 on the list loop)
    # and one justification-free allow on the time.time() line
    assert codes == ["ANA001", "ANA001", "ANA002"]
    clean = run_rule(rules, "clean/ana_suppressions.py")
    assert clean.findings == []
    assert len(clean.suppressed) == 1


def test_ana001_only_audits_rules_that_ran():
    """A --rules subset must not condemn allows for skipped rules."""
    report = run_rule("DET104", "bad/ana_suppressions.py")
    codes = sorted(f.rule for f in report.findings)
    # the DET103/DET101 allows are untestable in this pass: no ANA001
    assert codes == ["ANA002"]


def test_cache203_snapshot_lifecycle(tmp_path):
    src = tmp_path / "src"
    src.mkdir()
    spec = src / "spec.py"
    spec.write_text(
        "SPEC_VERSION = 1\n\n\n"
        "class RunSpec:\n"
        "    kind: str = 'x'\n\n"
        "    def to_dict(self):\n"
        "        return {'kind': self.kind}\n\n"
        "    def fingerprint(self):\n"
        "        return str(self.to_dict())\n"
    )
    snap = str(tmp_path / "snap.json")

    def run():
        return analyze_tree(
            AnalyzeConfig(
                root=str(tmp_path), paths=("src",),
                rules=("CACHE203",), snapshot_path=snap,
            )
        )

    # 1. no snapshot committed yet -> actionable error
    report = run()
    assert any("no committed identity snapshot" in f.message
               for f in report.findings)

    # 2. snapshot written -> clean
    config = AnalyzeConfig(
        root=str(tmp_path), paths=("src",), snapshot_path=snap
    )
    save_snapshot(snap, identity_surface(build_context(config)))
    assert run().findings == []

    # 3. identity drift without a version bump -> flagged as such
    spec.write_text(spec.read_text().replace(
        "return {'kind': self.kind}",
        "return {'kind': self.kind, 'load': 0.5}",
    ))
    report = run()
    assert any("without a CACHE_VERSION/SPEC_VERSION bump" in f.message
               for f in report.findings)

    # 4. with a bump the drift is still surfaced (snapshot refresh due)
    #    but no longer blamed as an unbumped change
    spec.write_text(spec.read_text().replace(
        "SPEC_VERSION = 1", "SPEC_VERSION = 2"
    ))
    report = run()
    assert report.findings
    assert not any("without a CACHE_VERSION" in f.message
                   for f in report.findings)

    # 5. refreshing the snapshot settles it
    save_snapshot(snap, identity_surface(build_context(config)))
    assert run().findings == []
