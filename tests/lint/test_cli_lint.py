"""CLI-level tests for ``cfl-match lint``: exit codes, rule listing,
JSON output and report files."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = "import time\n\n\ndef f():\n    return time.perf_counter()\n"


def make_tree(tmp_path: Path, source: str) -> Path:
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    target = tmp_path / "src" / "repro" / "core" / "foo.py"
    target.parent.mkdir(parents=True)
    target.write_text(source)
    return target


def test_clean_repo_exits_zero(capsys):
    code = main(["lint", str(REPO_ROOT / "src" / "repro"), "--root", str(REPO_ROOT)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_violation_exits_one(tmp_path, capsys):
    make_tree(tmp_path, VIOLATION)
    code = main(["lint", str(tmp_path / "src"), "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    assert "R005" in out
    assert "src/repro/core/foo.py" in out


def test_list_rules(capsys):
    code = main(["lint", "--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule_id in ("R003", "R004", "R005", "R006"):
        assert rule_id in out


def test_json_to_stdout(tmp_path, capsys):
    make_tree(tmp_path, VIOLATION)
    code = main(
        ["lint", str(tmp_path / "src"), "--root", str(tmp_path), "--json", "-"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["ok"] is False
    assert payload["diagnostics"][0]["rule"] == "R005"


def test_json_to_file(tmp_path, capsys):
    make_tree(tmp_path, VIOLATION)
    out_path = tmp_path / "lint-report.json"
    code = main(
        [
            "lint", str(tmp_path / "src"),
            "--root", str(tmp_path),
            "--json", str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert payload["ok"] is False
    assert payload["version"] == 3


def test_select_specific_rule(tmp_path, capsys):
    make_tree(tmp_path, VIOLATION)
    code = main(
        [
            "lint", str(tmp_path / "src"),
            "--root", str(tmp_path),
            "--select", "R006",
        ]
    )
    capsys.readouterr()
    assert code == 0


def test_unknown_rule_exits_two(tmp_path, capsys):
    make_tree(tmp_path, "x = 1\n")
    code = main(
        [
            "lint", str(tmp_path / "src"),
            "--root", str(tmp_path),
            "--select", "R999",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown rule" in err


# ----------------------------------------------------------------------
# --sarif
# ----------------------------------------------------------------------
def test_sarif_report(tmp_path, capsys):
    make_tree(tmp_path, VIOLATION)
    sarif_path = tmp_path / "lint.sarif"
    code = main(
        [
            "lint", str(tmp_path / "src"),
            "--root", str(tmp_path),
            "--sarif", str(sarif_path),
        ]
    )
    capsys.readouterr()
    assert code == 1
    payload = json.loads(sarif_path.read_text())
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert "R005" in {r["id"] for r in run["tool"]["driver"]["rules"]}
    result = next(r for r in run["results"] if r["ruleId"] == "R005")
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/repro/core/foo.py"
    assert location["region"]["startLine"] >= 1
    assert location["region"]["startColumn"] >= 1  # SARIF columns are 1-based
