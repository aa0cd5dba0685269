"""Report rendering for ``cfl-match lint``: the SARIF log and the rule list.

The text and JSON reports come straight from
:class:`~repro.lint.analyzer.LintReport` (``render``/``to_dict``).  The
SARIF output targets the 2.1.0 schema so code-scanning UIs can annotate
diffs with findings.
"""

from __future__ import annotations

from typing import Any, Dict, List

from .analyzer import LintReport
from .registry import Rule

#: SARIF schema targeted by :func:`sarif_dict`
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"


def sarif_dict(report: LintReport) -> Dict[str, Any]:
    """The report as a minimal SARIF 2.1.0 log (one run, one tool)."""
    rules_meta = [
        {
            "id": rule.id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
        }
        for rule in report.rules
    ]
    results = [
        {
            "ruleId": diag.rule,
            "level": "error",
            "message": {"text": diag.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": diag.path},
                        "region": {
                            "startLine": diag.line,
                            # SARIF columns are 1-based; diagnostics are 0-based
                            "startColumn": diag.column + 1,
                        },
                    }
                }
            ],
        }
        for diag in report.diagnostics
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": report.engine_version,
                        "rules": rules_meta,
                    }
                },
                "results": results,
            }
        ],
    }


def format_rule_list(rules: List[Rule]) -> str:
    """``--list-rules`` table: id, name, summary, scope."""
    lines: List[str] = []
    for rule in rules:
        lines.append(f"{rule.id}  {rule.name}")
        lines.append(f"      {rule.summary}")
        scope = ", ".join(rule.paths)
        if rule.excludes:
            scope += f" (except {', '.join(rule.excludes)})"
        lines.append(f"      scope: {scope}")
    return "\n".join(lines)
