"""SARIF 2.1.0 output for simlint.

SARIF (Static Analysis Results Interchange Format) is what code
hosting UIs ingest to annotate diffs with findings.  One lint run maps
to one ``run`` object: the tool section carries the full rule
catalogue (index-linked from each result), every finding becomes a
``result`` with a physical location, and suppressed findings are
emitted with a ``suppressions`` entry rather than dropped
— SARIF consumers hide them by default but keep the audit trail.

Only constructs from the 2.1.0 schema are used; columns are converted
from simlint's 0-based to SARIF's 1-based convention.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.lint.framework import Finding

__all__ = ["sarif_report"]

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

_LEVELS = {"error": "error", "warning": "warning"}


def sarif_report(findings: List[Finding], rules: Dict[str, type],
                 tool_version: str) -> Dict[str, Any]:
    """Build a SARIF 2.1.0 log dict for one lint run."""
    rule_ids = sorted(rules)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    descriptors = []
    for rule_id in rule_ids:
        rule = rules[rule_id]
        descriptors.append({
            "id": rule_id,
            "name": getattr(rule, "name", rule_id),
            "shortDescription": {
                "text": getattr(rule, "description", "") or rule_id,
            },
            "defaultConfiguration": {
                "level": _LEVELS.get(getattr(rule, "severity", "error"),
                                     "error"),
            },
        })
    results = []
    for finding in findings:
        result: Dict[str, Any] = {
            "ruleId": finding.rule,
            "level": _LEVELS.get(finding.severity, "error"),
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path.replace("\\", "/"),
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                        "endLine": finding.end_line,
                    },
                },
            }],
        }
        if finding.rule in rule_index:
            result["ruleIndex"] = rule_index[finding.rule]
        if finding.suppressed:
            result["suppressions"] = [{
                "kind": "inSource",
                "justification": "simlint: ignore comment",
            }]
        results.append(result)
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "simlint",
                    "version": tool_version,
                    "rules": descriptors,
                },
            },
            "results": results,
        }],
    }
