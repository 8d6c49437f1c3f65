"""Engine-level behavior: suppression coverage, baseline workflow,
report rendering/thresholds, rule registry, and the CLI wiring."""

import json
import os
import subprocess
import sys

import pytest

from repro.analyze import (
    ANALYZE_RULES,
    AnalyzeConfig,
    AnalyzeError,
    AnalyzeReport,
    Finding,
    analyze_tree,
)
from repro.analyze.baseline import (
    apply_baseline,
    load_baseline,
    save_baseline,
)
from repro.analyze.context import ModuleUnit, module_name_for

REPO = os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))
)


def write_tree(tmp_path, files):
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def run_over(tmp_path, **kwargs):
    kwargs.setdefault("rules", ("DET103",))
    return analyze_tree(
        AnalyzeConfig(root=str(tmp_path), paths=("src",), **kwargs)
    )


BAD_RNG = (
    "import numpy as np\n\n\n"
    "def draw():\n"
    "    return np.random.default_rng().integers(10)\n"
)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------
def test_rule_catalog_complete():
    codes = set(ANALYZE_RULES.codes())
    assert {
        "DET101", "DET102", "DET103", "DET104", "DET105",
        "CACHE201", "CACHE202", "CACHE203",
        "REG301", "REG302", "REF401", "ANA001", "ANA002",
    } <= codes
    for entry in ANALYZE_RULES:
        assert entry.summary and entry.hint, entry.code
        assert entry.severity in ("warning", "error")
        assert entry.family in (
            "determinism", "cache-identity", "registry-hygiene",
            "reference-only", "analyzer",
        )


def test_registry_select_unknown_code():
    with pytest.raises(AnalyzeError):
        list(ANALYZE_RULES.select(("NOPE999",)))


def test_module_name_for():
    assert module_name_for("src/repro/sim/params.py") == (
        "repro.sim.params"
    )
    assert module_name_for("src/repro/analyze/__init__.py") == (
        "repro.analyze"
    )
    assert module_name_for("tools/gen.py") == "tools.gen"


# ---------------------------------------------------------------------------
# suppression coverage
# ---------------------------------------------------------------------------
def test_trailing_suppression_covers_its_line(tmp_path):
    write_tree(tmp_path, {"src/m.py": (
        "import numpy as np\n\n"
        "rng = np.random.default_rng()  "
        "# repro: allow[DET103]: fixture\n"
    )})
    report = run_over(tmp_path)
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_comment_block_suppression_covers_next_statement(tmp_path):
    write_tree(tmp_path, {"src/m.py": (
        "import numpy as np\n\n"
        "# repro: allow[DET103]: a justification long enough to wrap\n"
        "# over two comment lines before the statement\n"
        "rng = np.random.default_rng()\n"
    )})
    report = run_over(tmp_path)
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_suppression_does_not_leak_past_blank_line(tmp_path):
    write_tree(tmp_path, {"src/m.py": (
        "import numpy as np\n\n"
        "# repro: allow[DET103]: detached comment\n\n"
        "rng = np.random.default_rng()\n"
    )})
    report = run_over(tmp_path)
    codes = sorted(f.rule for f in report.findings)
    assert codes == ["ANA001", "DET103"]


def test_allow_in_docstring_is_inert(tmp_path):
    write_tree(tmp_path, {"src/m.py": (
        '"""Docs quoting ``# repro: allow[DET103]: like this``."""\n'
        "X = 1\n"
    )})
    report = run_over(tmp_path)
    assert report.findings == []
    assert report.suppressed == []


def test_multi_code_suppression(tmp_path):
    write_tree(tmp_path, {"src/m.py": (
        "import time\n"
        "import numpy as np\n\n"
        "# repro: allow[DET103, DET104]: both fire on the next line\n"
        "stamp = (np.random.default_rng(), time.time())\n"
    )})
    report = analyze_tree(AnalyzeConfig(
        root=str(tmp_path), paths=("src",),
        rules=("DET103", "DET104"),
    ))
    assert report.findings == []
    assert len(report.suppressed) == 2


def test_syntax_error_reported_not_crashed(tmp_path):
    write_tree(tmp_path, {"src/broken.py": "def oops(:\n"})
    report = run_over(tmp_path)
    assert [f.rule for f in report.findings] == ["ANA000"]
    assert report.findings[0].severity == "error"


# ---------------------------------------------------------------------------
# baseline workflow
# ---------------------------------------------------------------------------
def test_baseline_grandfathers_then_catches_new(tmp_path):
    write_tree(tmp_path, {"src/old.py": BAD_RNG})
    baseline = str(tmp_path / "baseline.json")
    report = run_over(tmp_path)
    assert len(report.findings) == 1
    save_baseline(baseline, report.findings)

    # grandfathered: gate passes
    report = run_over(tmp_path, baseline_path=baseline)
    assert report.findings == []
    assert len(report.baselined) == 1
    assert report.passed("warning")

    # a NEW finding in another file is not absorbed
    write_tree(tmp_path, {"src/new.py": BAD_RNG})
    report = run_over(tmp_path, baseline_path=baseline)
    assert [f.path for f in report.findings] == ["src/new.py"]
    assert not report.passed("error")


def test_baseline_count_budget(tmp_path):
    # two identical findings in one file, baselined; a third regresses
    write_tree(tmp_path, {"src/m.py": BAD_RNG.replace(
        "    return np.random.default_rng().integers(10)\n",
        "    a = np.random.default_rng().integers(10)\n"
        "    b = np.random.default_rng().integers(10)\n"
        "    return a + b\n",
    )})
    baseline = str(tmp_path / "baseline.json")
    save_baseline(baseline, run_over(tmp_path).findings)
    entries = load_baseline(baseline)
    assert len(entries) == 2  # distinct source lines -> distinct keys

    write_tree(tmp_path, {"src/m2.py": BAD_RNG})
    report = run_over(tmp_path, baseline_path=baseline)
    assert len(report.baselined) == 2
    assert len(report.findings) == 1


def test_baseline_stale_entries_surfaced(tmp_path):
    write_tree(tmp_path, {"src/old.py": BAD_RNG})
    baseline = str(tmp_path / "baseline.json")
    save_baseline(baseline, run_over(tmp_path).findings)
    write_tree(tmp_path, {"src/old.py": "X = 1\n"})  # bug fixed
    report = run_over(tmp_path, baseline_path=baseline)
    assert report.findings == []
    assert len(report.stale_baseline) == 1
    assert "stale baseline" in report.to_text()


def test_baseline_line_drift_tolerated(tmp_path):
    write_tree(tmp_path, {"src/old.py": BAD_RNG})
    baseline = str(tmp_path / "baseline.json")
    save_baseline(baseline, run_over(tmp_path).findings)
    # unrelated edit ABOVE the finding shifts its line number
    write_tree(tmp_path, {"src/old.py": "Y = 2\n\n" + BAD_RNG})
    report = run_over(tmp_path, baseline_path=baseline)
    assert report.findings == []
    assert len(report.baselined) == 1


def test_load_baseline_rejects_bad_format(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"format": 99, "entries": []}))
    with pytest.raises(AnalyzeError):
        load_baseline(str(path))


def test_apply_baseline_pure():
    finding = Finding(
        rule="DET103", severity="error", path="src/m.py", line=3,
        message="x", context="rng = np.random.default_rng()",
    )
    entries = [{
        "rule": "DET103", "path": "src/m.py",
        "context": "rng = np.random.default_rng()", "count": 1,
    }]
    active, baselined, stale = apply_baseline([finding, finding], entries)
    assert len(active) == 1 and len(baselined) == 1 and stale == []


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------
def test_report_thresholds():
    warn = Finding("DET101", "warning", "a.py", 1, "w")
    err = Finding("DET103", "error", "a.py", 2, "e")
    report = AnalyzeReport(root=".", findings=[warn, err])
    assert not report.passed("error")
    assert not report.passed("warning")
    assert report.passed("none")
    warn_only = AnalyzeReport(root=".", findings=[warn])
    assert warn_only.passed("error")
    assert not warn_only.passed("warning")


def test_report_json_round_trip():
    report = AnalyzeReport(
        root=".", findings=[Finding("DET101", "warning", "a.py", 1, "w")],
        files_checked=3, rules_run=["DET101"],
    )
    data = json.loads(report.to_json())
    assert data["warnings"] == 1 and data["errors"] == 0
    assert data["findings"][0]["rule"] == "DET101"


def test_module_unit_parse_helpers():
    unit = ModuleUnit.parse("src/m.py", "x = 1  # repro: allow[DET101]: r\n")
    assert unit.suppressions[0].codes == ("DET101",)
    assert unit.suppressions[0].reason == "r"
    assert unit.line_text(1).startswith("x = 1")
    assert unit.line_text(99) == ""


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def run_cli(*argv, cwd=REPO):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "analyze", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def test_cli_list_rules():
    proc = run_cli("--list-rules")
    assert proc.returncode == 0
    assert "DET101" in proc.stdout and "CACHE203" in proc.stdout


def test_cli_json_and_fail_on(tmp_path):
    write_tree(tmp_path, {"src/m.py": BAD_RNG})
    proc = run_cli(
        "--root", str(tmp_path), "--rules", "DET103", "--json",
        str(tmp_path / "src"),
    )
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert data["errors"] == 1
    proc = run_cli(
        "--root", str(tmp_path), "--rules", "DET103",
        "--fail-on", "none", str(tmp_path / "src"),
    )
    assert proc.returncode == 0
