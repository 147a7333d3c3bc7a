"""Configuration, CLI, and JSON-schema tests for simlint."""

import json
import os

import pytest

from repro.lint import (
    LintConfig,
    LintConfigError,
    LintRunner,
    all_rules,
    load_config,
)
from repro.lint.cli import JSON_SCHEMA_VERSION, main

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "data", "lint")

MIXED_SOURCE = (
    "import time\n"
    "def t(rtt_ms, delay_s):\n"
    "    start = time.time()\n"
    "    return rtt_ms + delay_s\n"
)


def write_pyproject(tmp_path, body):
    path = tmp_path / "pyproject.toml"
    path.write_text("[tool.simlint]\n" + body, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# [tool.simlint] plumbing
# ---------------------------------------------------------------------------
def test_disable_removes_a_rule(tmp_path):
    config = load_config(write_pyproject(tmp_path, 'disable = ["DET001"]\n'))
    findings = LintRunner(config).run_source(MIXED_SOURCE, path="x.py")
    assert {f.rule for f in findings} == {"UNIT002"}


def test_enable_runs_only_listed_rules(tmp_path):
    config = load_config(write_pyproject(tmp_path, 'enable = ["DET001"]\n'))
    findings = LintRunner(config).run_source(MIXED_SOURCE, path="x.py")
    assert {f.rule for f in findings} == {"DET001"}


def test_unknown_rule_in_config_raises(tmp_path):
    with pytest.raises(LintConfigError, match="NOPE999"):
        load_config(write_pyproject(tmp_path, 'disable = ["NOPE999"]\n'))


def test_unknown_config_key_raises(tmp_path):
    with pytest.raises(LintConfigError, match="colour"):
        load_config(write_pyproject(tmp_path, 'colour = ["DET001"]\n'))


def test_exclude_skips_matching_paths(tmp_path):
    config = load_config(write_pyproject(
        tmp_path, 'exclude = ["data/lint"]\n'))
    runner = LintRunner(config)
    assert runner.run_paths([FIXTURES]) == []
    assert runner.files_scanned == 0


def test_missing_config_file_means_defaults():
    config = load_config(None)
    assert config == LintConfig()
    assert len(config.selected_rules()) == len(all_rules())


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_exit_codes(tmp_path):
    clean = tmp_path / "clean.py"
    clean.write_text("x = 1\n", encoding="utf-8")
    dirty = tmp_path / "dirty.py"
    dirty.write_text("import time\nstart = time.time()\n", encoding="utf-8")
    assert main([str(clean), "--no-config"]) == 0
    assert main([str(dirty), "--no-config"]) == 1


def test_cli_nonexistent_path_is_a_config_error(tmp_path, capsys):
    missing = str(tmp_path / "nope")
    assert main([missing, "--no-config"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cli_unknown_rule_is_a_config_error(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("x = 1\n", encoding="utf-8")
    assert main([str(target), "--no-config", "--select", "NOPE999"]) == 2
    assert "NOPE999" in capsys.readouterr().err


def test_cli_select_and_disable_flags(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text(MIXED_SOURCE, encoding="utf-8")
    assert main([str(target), "--no-config", "--select", "DET001",
                 "--format", "json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert {f["rule"] for f in report["findings"]} == {"DET001"}
    assert main([str(target), "--no-config",
                 "--disable", "DET001,UNIT002"]) == 0


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in all_rules():
        assert rule_id in out


# ---------------------------------------------------------------------------
# JSON schema stability
# ---------------------------------------------------------------------------
def test_json_schema_is_stable(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text(MIXED_SOURCE, encoding="utf-8")
    exit_code = main([str(target), "--no-config", "--format", "json"])
    assert exit_code == 1
    report = json.loads(capsys.readouterr().out)
    # Top-level shape: fixed keys, nothing extra.  Additions require a
    # version bump plus a docs/LINTING.md update.
    assert sorted(report) == ["counts", "errors", "files_analyzed",
                              "files_scanned", "findings", "suppressed",
                              "version"]
    assert report["version"] == JSON_SCHEMA_VERSION == 5
    assert report["files_scanned"] == 1
    assert report["files_analyzed"] == 1
    assert report["errors"] == 0
    assert report["suppressed"] == 0
    assert sorted(report["counts"]) == ["error", "warning"]
    assert report["counts"]["error"] == len(report["findings"]) == 2
    for finding in report["findings"]:
        assert sorted(finding) == ["col", "end_line", "line", "message",
                                   "path", "rule", "severity",
                                   "suppressed"]
        assert isinstance(finding["line"], int)
        assert finding["severity"] in ("error", "warning")


def test_sarif_output_is_structurally_valid(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text(MIXED_SOURCE, encoding="utf-8")
    assert main([str(target), "--no-config", "--format", "sarif"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == "2.1.0"
    assert "sarif" in report["$schema"]
    run = report["runs"][0]
    driver = run["tool"]["driver"]
    rule_ids = [r["id"] for r in driver["rules"]]
    # Catalogue covers every registered rule, sorted, and each result's
    # ruleIndex points back at its descriptor.
    assert rule_ids == sorted(all_rules())
    results = run["results"]
    assert {r["ruleId"] for r in results} == {"DET001", "UNIT002"}
    for result in results:
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1
        assert region["startColumn"] >= 1
        assert "suppressions" not in result


def test_sarif_marks_suppressed_findings(tmp_path, capsys):
    target = tmp_path / "x.py"
    target.write_text("import time\n"
                      "s = time.time()  # simlint: ignore[DET001]\n",
                      encoding="utf-8")
    assert main([str(target), "--no-config", "--format", "sarif"]) == 0
    report = json.loads(capsys.readouterr().out)
    results = report["runs"][0]["results"]
    assert len(results) == 1
    assert results[0]["suppressions"][0]["kind"] == "inSource"


def test_findings_are_deterministically_ordered(tmp_path):
    runner = LintRunner(LintConfig())
    first = runner.run_source(MIXED_SOURCE, path="x.py")
    second = runner.run_source(MIXED_SOURCE, path="x.py")
    assert [f.as_dict() for f in first] == [f.as_dict() for f in second]
    assert [f.line for f in first] == sorted(f.line for f in first)
