"""Whole-project analysis tests: cross-module rule packs and
error-path exit codes.

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
                    "proj_rng_lineage")


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


def test_shard_chain_names_the_dispatch_entry():
    _runner, findings = lint_project("proj_shard")
    shared = [f for f in findings if f.rule == "SHARD001"]
    assert len(shared) == 2
    for finding in shared:
        assert "_worker" in finding.message


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
