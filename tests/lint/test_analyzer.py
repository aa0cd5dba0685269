"""Analyzer-level tests: file collection, parse errors, report shape,
suppression accounting, and the repo-wide zero-findings gate."""

from __future__ import annotations

from pathlib import Path

from repro.lint import PARSE_ERROR_RULE, find_root, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

VIOLATION = "import time\n\n\ndef f():\n    return time.perf_counter()\n"


def make_tree(tmp_path: Path, source: str, relpath: str = "src/repro/core/foo.py") -> Path:
    (tmp_path / "pyproject.toml").write_text("[project]\nname = 'x'\n")
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


class TestLintPaths:
    def test_violation_is_reported(self, tmp_path):
        make_tree(tmp_path, VIOLATION)
        report = lint_paths([tmp_path / "src"], root=tmp_path)
        assert not report.ok
        assert [d.rule for d in report.diagnostics] == ["R005"]
        assert report.diagnostics[0].path == "src/repro/core/foo.py"
        assert report.files_checked == 1

    def test_clean_tree_is_ok(self, tmp_path):
        make_tree(tmp_path, "def f():\n    return 1\n")
        report = lint_paths([tmp_path / "src"], root=tmp_path)
        assert report.ok
        assert report.diagnostics == []

    def test_out_of_scope_files_are_not_checked(self, tmp_path):
        make_tree(tmp_path, VIOLATION, relpath="src/other/foo.py")
        report = lint_paths([tmp_path / "src"], root=tmp_path)
        assert report.ok
        assert report.files_checked == 0

    def test_parse_error_becomes_E001(self, tmp_path):
        make_tree(tmp_path, "def f(:\n")
        report = lint_paths([tmp_path / "src"], root=tmp_path)
        assert [d.rule for d in report.diagnostics] == [PARSE_ERROR_RULE]
        assert not report.ok

    def test_suppressed_findings_are_counted_not_reported(self, tmp_path):
        make_tree(
            tmp_path,
            "import time\n\n\ndef f():\n"
            "    return time.perf_counter()  # repro-lint: disable=R005\n",
        )
        report = lint_paths([tmp_path / "src"], root=tmp_path)
        assert report.ok
        assert len(report.suppressed) == 1
        assert report.suppressed[0].rule == "R005"

    def test_select_narrows_rules(self, tmp_path):
        make_tree(tmp_path, VIOLATION)
        report = lint_paths([tmp_path / "src"], root=tmp_path, select=["R006"])
        assert report.ok

    def test_single_file_argument(self, tmp_path):
        target = make_tree(tmp_path, VIOLATION)
        report = lint_paths([target], root=tmp_path)
        assert len(report.diagnostics) == 1

    def test_diagnostics_are_sorted(self, tmp_path):
        make_tree(
            tmp_path,
            "import time\n\n\ndef f():\n"
            "    a = time.perf_counter()\n"
            "    b = time.monotonic()\n"
            "    return a + b\n",
        )
        report = lint_paths([tmp_path / "src"], root=tmp_path)
        keys = [d.sort_key for d in report.diagnostics]
        assert keys == sorted(keys)

    def test_json_shape(self, tmp_path):
        make_tree(tmp_path, VIOLATION)
        payload = lint_paths([tmp_path / "src"], root=tmp_path).to_dict()
        assert payload["version"] == 2
        assert payload["engine_version"]
        assert payload["ok"] is False
        assert payload["files_checked"] == 1
        assert {r["id"] for r in payload["rules"]} == {
            "R001", "R002", "R003", "R004", "R005", "R006",
            "R007", "R009",
        }
        diag = payload["diagnostics"][0]
        assert set(diag) == {"rule", "path", "line", "column", "message"}
        assert set(payload["rule_times_s"]) == {r["id"] for r in payload["rules"]}
        assert all(t >= 0 for t in payload["rule_times_s"].values())
        assert set(payload["summary_cache"]) == {"hits", "misses"}


class TestFindRoot:
    def test_walks_up_to_pyproject(self, tmp_path):
        make_tree(tmp_path, "x = 1\n")
        assert find_root(tmp_path / "src" / "repro" / "core") == tmp_path

    def test_repo_root_is_found(self):
        assert find_root(Path(__file__).parent) == REPO_ROOT


class TestRepoGate:
    """The acceptance gate: the tree this test runs in must be clean."""

    def test_src_repro_has_zero_findings(self):
        report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert report.diagnostics == [], report.render()

    def test_core_and_lint_carry_zero_suppressions(self):
        report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        sensitive = [
            d
            for d in report.suppressed
            if d.path.startswith(("src/repro/core/", "src/repro/lint/"))
        ]
        assert sensitive == [], [d.render() for d in sensitive]
