"""Whole-project analysis tests: cross-module rule packs, the
incremental cache, baseline files, and error-path exit codes.

The ``proj_*`` fixture directories under tests/data/lint/ are small
multi-module projects; as in test_lint_rules, every violating line
carries an ``# expect: RULE`` marker and the analyzer must report
exactly the marked (file, line, rule) set — nothing more, nothing less.
"""

import json
import os

import pytest

from repro.lint import LintConfig, LintRunner
from repro.lint.cli import main
from repro.lint.framework import _REGISTRY, Rule, register
from tests.test_lint_rules import expected_findings

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "data", "lint")

PROJECT_FIXTURES = ("proj_evt", "proj_flow", "proj_shard",
                    "proj_unit_flow", "proj_unit_conv",
                    "proj_effectflow", "proj_rng_lineage")


def lint_project(dirname):
    runner = LintRunner(LintConfig())
    findings = runner.run_paths([os.path.join(FIXTURES, dirname)])
    return runner, findings


def expected_in_tree(root):
    expected = []
    for dirpath, _dirs, files in os.walk(root):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            for line, rule in expected_findings(path):
                expected.append((path, line, rule))
    return sorted(expected)


# ---------------------------------------------------------------------------
# Cross-module rule packs
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("dirname", PROJECT_FIXTURES)
def test_project_fixture_findings_match_expect_markers(dirname):
    runner, findings = lint_project(dirname)
    assert runner.errors == 0
    assert not any(f.suppressed for f in findings)
    actual = sorted((f.path, f.line, f.rule) for f in findings)
    assert actual == expected_in_tree(os.path.join(FIXTURES, dirname))


def test_cross_file_reentrancy_needs_the_project_pass():
    """The exact case the old same-file EVT001 missed: run() lives in a
    different module than the schedule() call, so per-file passes over
    either module see nothing."""
    root = os.path.join(FIXTURES, "proj_evt")
    for name in ("world.py", "engine_helpers.py"):
        per_file = LintRunner(LintConfig()).run_file(
            os.path.join(root, name))
        assert not any(f.rule == "EVT001" for f in per_file)
    _runner, findings = lint_project("proj_evt")
    evt = [f for f in findings if f.rule == "EVT001"]
    assert len(evt) == 1
    # The message names the callback chain that reaches run().
    assert "world.tick -> engine_helpers.drain" in evt[0].message


def test_flow_findings_name_their_source_and_chain():
    _runner, findings = lint_project("proj_flow")
    schedule = [f for f in findings if f.rule == "DET006"]
    assert schedule
    for finding in schedule:
        assert "time.time" in finding.message
    jittered = [f for f in findings
                if f.rule == "DET006" and "via" in f.message]
    assert jittered, "cross-module flow should print its call chain"


def test_shard_chain_names_the_dispatch_entry():
    _runner, findings = lint_project("proj_shard")
    shared = [f for f in findings if f.rule == "SHARD001"]
    assert len(shared) == 2
    for finding in shared:
        assert "_worker" in finding.message


def test_parity_rules_stand_down_without_a_replication_root():
    # Linting only the session-path modules (no SessionExecutor in the
    # file set) must not produce EFF findings: partial lints of tcp/
    # alone would otherwise always light up.
    root = os.path.join(FIXTURES, "proj_effectflow")
    runner = LintRunner(LintConfig())
    findings = runner.run_paths([os.path.join(root, "tcp"),
                                 os.path.join(root, "measure")])
    assert not any(f.rule.startswith("EFF") for f in findings)


# ---------------------------------------------------------------------------
# Incremental cache
# ---------------------------------------------------------------------------
def test_cache_second_run_is_identical_and_cheaper(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import time\nstart = time.time()\n",
                      encoding="utf-8")
    cache = str(tmp_path / "cache.json")
    argv = [str(target), "--no-config", "--cache", cache,
            "--format", "json"]
    assert main(argv) == 1
    first = json.loads(capsys.readouterr().out)
    assert first["files_analyzed"] == 1
    assert first["files_from_cache"] == 0
    assert main(argv) == 1
    second = json.loads(capsys.readouterr().out)
    assert second["files_from_cache"] == 1
    assert second["files_analyzed"] == 0
    assert second["findings"] == first["findings"]


def test_cache_invalidates_on_content_change(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import time\nstart = time.time()\n",
                      encoding="utf-8")
    cache = str(tmp_path / "cache.json")
    argv = [str(target), "--no-config", "--cache", cache,
            "--format", "json"]
    assert main(argv) == 1
    capsys.readouterr()
    target.write_text("import time\n\nstart = time.time()\n",
                      encoding="utf-8")
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files_from_cache"] == 0
    assert report["files_analyzed"] == 1
    assert [f["line"] for f in report["findings"]] == [3]


def test_cache_restores_facts_for_project_rules(tmp_path):
    # A warm cache must feed module *facts* (not just findings) back to
    # the project pass: EVT001 has to survive a fully-cached run.
    cache = str(tmp_path / "cache.json")
    root = os.path.join(FIXTURES, "proj_evt")
    cold = LintRunner(LintConfig(cache=cache))
    cold_findings = cold.run_paths([root])
    warm = LintRunner(LintConfig(cache=cache))
    warm_findings = warm.run_paths([root])
    assert warm.files_from_cache == warm.files_scanned == 2
    assert [f.as_dict() for f in warm_findings] \
        == [f.as_dict() for f in cold_findings]
    assert any(f.rule == "EVT001" for f in warm_findings)


def test_cache_restores_inferred_signatures(tmp_path, capsys):
    # Beyond module facts, a warm cache must seed the unit-inference
    # fixpoint with the previous run's signature table — and the seeded
    # run has to land on byte-identical findings.
    cache = str(tmp_path / "cache.json")
    root = os.path.join(FIXTURES, "proj_unit_flow")
    argv = [root, "--no-config", "--cache", cache, "--format", "json"]
    assert main(argv) == 1
    cold = json.loads(capsys.readouterr().out)
    assert cold["signatures_from_cache"] == 0
    assert main(argv) == 1
    warm = json.loads(capsys.readouterr().out)
    assert warm["files_from_cache"] == warm["files_scanned"]
    assert warm["files_analyzed"] == 0
    assert warm["signatures_from_cache"] > 0
    assert warm["findings"] == cold["findings"]


def test_cache_survives_pack_disable(tmp_path, capsys):
    # Rule-selection edits are pack-granular, not store-nuking:
    # disabling a rule between runs must keep every cached entry (the
    # facts and findings of the *other* rules are still valid) and
    # simply filter the disabled rule's findings out on restore.
    target = tmp_path / "mod.py"
    target.write_text("import time\nstart = time.time()\n",
                      encoding="utf-8")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.simlint]\n", encoding="utf-8")
    cache = str(tmp_path / "cache.json")
    argv = [str(target), "--config", str(pyproject), "--cache", cache,
            "--format", "json"]
    assert main(argv) == 1
    cold = json.loads(capsys.readouterr().out)
    flagged = {f["rule"] for f in cold["findings"]}
    assert "DET001" in flagged
    pyproject.write_text('[tool.simlint]\ndisable = ["DET001"]\n',
                         encoding="utf-8")
    assert main(argv) in (0, 1)
    report = json.loads(capsys.readouterr().out)
    assert report["files_from_cache"] == 1
    assert report["files_analyzed"] == 0
    assert "DET001" not in {f["rule"] for f in report["findings"]}


def test_cache_misses_when_selection_grows(tmp_path, capsys):
    # The flip side of pack-granular invalidation: an entry recorded
    # under a narrow selection never ran the re-enabled rule, so the
    # file must be re-analyzed, not replayed without its findings.
    target = tmp_path / "mod.py"
    target.write_text("import time\nstart = time.time()\n",
                      encoding="utf-8")
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text('[tool.simlint]\ndisable = ["DET001"]\n',
                         encoding="utf-8")
    cache = str(tmp_path / "cache.json")
    argv = [str(target), "--config", str(pyproject), "--cache", cache,
            "--format", "json"]
    main(argv)
    capsys.readouterr()
    pyproject.write_text("[tool.simlint]\n", encoding="utf-8")
    assert main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files_from_cache"] == 0
    assert report["files_analyzed"] == 1
    assert "DET001" in {f["rule"] for f in report["findings"]}


def test_signature_table_survives_pack_disable(tmp_path, capsys):
    # The satellite regression this protects: the old full-config
    # fingerprint nuked the store (signature table included) on any
    # enable/disable edit.  Toggling a pack must keep the warm run's
    # signatures_from_cache nonzero.
    cache = str(tmp_path / "cache.json")
    root = os.path.join(FIXTURES, "proj_unit_flow")
    argv = [root, "--cache", cache, "--format", "json"]
    assert main(argv + ["--no-config"]) == 1
    capsys.readouterr()
    assert main(argv + ["--no-config", "--disable", "EVT001"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["files_from_cache"] == report["files_scanned"]
    assert report["signatures_from_cache"] > 0


# ---------------------------------------------------------------------------
# Baseline files
# ---------------------------------------------------------------------------
def test_baseline_round_trip(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import time\nstart = time.time()\n",
                      encoding="utf-8")
    baseline = str(tmp_path / "baseline.json")
    assert main([str(target), "--no-config",
                 "--write-baseline", baseline]) == 0
    capsys.readouterr()
    assert main([str(target), "--no-config", "--baseline", baseline,
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["baselined"] == 1
    assert all(f["baselined"] for f in report["findings"])


def test_baseline_does_not_absorb_new_findings(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("import time\nstart = time.time()\n",
                      encoding="utf-8")
    baseline = str(tmp_path / "baseline.json")
    assert main([str(target), "--no-config",
                 "--write-baseline", baseline]) == 0
    # The old finding moves down a line (fingerprints are line-free, so
    # it stays baselined) and a genuinely new one appears.
    target.write_text("import time\nimport os\nstart = time.time()\n"
                      "noise = os.urandom(8)\n", encoding="utf-8")
    capsys.readouterr()
    assert main([str(target), "--no-config", "--baseline", baseline,
                 "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    blocking = [f for f in report["findings"] if not f["baselined"]]
    assert [f["rule"] for f in blocking] == ["DET002"]


def test_unreadable_baseline_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("x = 1\n", encoding="utf-8")
    assert main([str(target), "--no-config",
                 "--baseline", str(tmp_path / "missing.json")]) == 2
    assert "baseline" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Error paths and exit codes
# ---------------------------------------------------------------------------
def test_syntax_error_forces_exit_2(tmp_path, capsys):
    good = tmp_path / "good.py"
    good.write_text("x = 1\n", encoding="utf-8")
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n", encoding="utf-8")
    assert main([str(tmp_path), "--no-config", "--format", "json"]) == 2
    report = json.loads(capsys.readouterr().out)
    assert report["errors"] == 1
    assert report["files_scanned"] == 2
    assert [f["rule"] for f in report["findings"]] == ["META001"]


def test_crashing_rule_reports_meta_finding_not_traceback():
    @register
    class ExplodingRule(Rule):
        id = "TST901"
        name = "exploding"
        severity = "warning"
        description = "test-only rule that always crashes"

        def visit_Name(self, node):
            raise RuntimeError("boom")

    try:
        runner = LintRunner(LintConfig())
        findings = runner.run_source("x = 1\n", path="inline.py")
        assert runner.errors == 1
        assert any(f.rule == "META001" and "internal error" in f.message
                   for f in findings)
    finally:
        _REGISTRY.pop("TST901")
