"""Rule-pack tests driven by the fixtures under tests/data/lint/.

Each fixture annotates violating lines with ``# expect: RULE`` markers;
the test asserts the analyzer reports exactly those (rule, line) pairs —
missed findings and spurious findings both fail.
"""

import os
import re

import pytest

from repro.lint import LintConfig, LintRunner

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "data", "lint")

_EXPECT_RE = re.compile(r"#\s*expect:\s*([A-Z0-9,\s]+)")


def expected_findings(path):
    """Sorted (line, rule) pairs declared by ``# expect:`` markers."""
    expected = []
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, text in enumerate(handle, start=1):
            match = _EXPECT_RE.search(text)
            if match:
                for rule_id in match.group(1).split(","):
                    expected.append((lineno, rule_id.strip()))
    return sorted(expected)


def lint_fixture(name, **config_kwargs):
    runner = LintRunner(LintConfig(**config_kwargs))
    findings = runner.run_file(os.path.join(FIXTURES, name))
    # Project-scope rules (EVT001, the SHARD and RNG packs) run after
    # the per-file pass; for a one-file fixture the "project" is the
    # file.
    findings.extend(runner.run_project())
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


@pytest.mark.parametrize("fixture", [
    "determinism_bad.py",
    "unit_bad.py",
    "event_bad.py",
    "obs_exporter_bad.py",
])
def test_fixture_findings_match_expect_markers(fixture):
    findings = lint_fixture(fixture)
    assert not any(f.suppressed for f in findings)
    actual = sorted((f.line, f.rule) for f in findings)
    assert actual == expected_findings(os.path.join(FIXTURES, fixture))


def test_determinism_pack_covers_at_least_three_rules():
    rules = {f.rule for f in lint_fixture("determinism_bad.py")}
    assert {"DET001", "DET002", "DET003", "DET004", "DET005"} <= rules


def test_unit_pack_covers_at_least_three_rules():
    rules = {f.rule for f in lint_fixture("unit_bad.py")}
    assert {"UNIT001", "UNIT002", "UNIT003", "UNIT004"} <= rules


def test_event_pack_covers_at_least_two_rules():
    rules = {f.rule for f in lint_fixture("event_bad.py")}
    assert {"EVT001", "EVT002", "EVT003"} <= rules


def test_inline_suppressions_silence_every_finding():
    findings = lint_fixture("suppressed_ok.py")
    assert findings, "fixture should still *produce* findings"
    assert all(f.suppressed for f in findings)
    assert {f.rule for f in findings} >= {"DET001", "DET003", "UNIT002",
                                          "EVT002", "UNIT001"}


def test_file_level_pragma_silences_whole_module():
    findings = lint_fixture("pragma_file.py")
    det = [f for f in findings if f.rule == "DET001"]
    assert len(det) == 2
    assert all(f.suppressed for f in det)


def test_targeted_suppression_does_not_silence_other_rules():
    runner = LintRunner(LintConfig())
    findings = runner.run_source(
        "import time\n"
        "def t():\n"
        "    return time.time()  # simlint: ignore[UNIT002]\n",
        path="inline.py")
    det = [f for f in findings if f.rule == "DET001"]
    assert len(det) == 1 and not det[0].suppressed


def test_unknown_rule_in_suppression_is_reported():
    runner = LintRunner(LintConfig())
    findings = runner.run_source(
        "x = 1  # simlint: ignore[NOPE999]\n", path="inline.py")
    assert [f.rule for f in findings] == ["META001"]
    assert "NOPE999" in findings[0].message


def test_docstring_mentioning_syntax_is_not_a_suppression():
    runner = LintRunner(LintConfig())
    findings = runner.run_source(
        '"""Docs: write # simlint: ignore[DET001] on the line."""\n'
        "import time\n"
        "start = time.time()\n", path="inline.py")
    det = [f for f in findings if f.rule == "DET001"]
    assert len(det) == 1 and not det[0].suppressed


def test_syntax_error_becomes_meta_finding():
    runner = LintRunner(LintConfig())
    findings = runner.run_source("def broken(:\n", path="inline.py")
    assert [f.rule for f in findings] == ["META001"]
    assert "does not parse" in findings[0].message
