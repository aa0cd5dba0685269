"""Unit tests for the command-line interface."""

import argparse
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.graph import save_graph
from repro.workloads.paper_graphs import figure1_example, figure3_example


@pytest.fixture
def graph_files(tmp_path):
    ex = figure3_example()
    data_path = tmp_path / "data.graph"
    query_path = tmp_path / "query.graph"
    save_graph(ex.data, data_path)
    save_graph(ex.query, query_path)
    return str(data_path), str(query_path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_match_args(self):
        args = build_parser().parse_args(
            ["match", "--data", "d", "--query", "q", "--limit", "5"]
        )
        assert args.limit == 5
        assert args.algorithm == "CFL-Match"

    def test_lint_flags_match_their_documentation(self):
        """Every ``cfl-match lint`` flag is documented in
        docs/static-analysis.md, and every flag spelled there exists."""
        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        flags = {
            option
            for action in subcommands.choices["lint"]._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        doc = Path(__file__).resolve().parents[2] / "docs" / "static-analysis.md"
        documented = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", doc.read_text()))
        assert flags == documented


class TestCommands:
    def test_match_prints_embeddings(self, graph_files, capsys):
        data, query = graph_files
        assert main(["match", "--data", data, "--query", query]) == 0
        out = capsys.readouterr().out
        assert "# 3 embedding(s)" in out
        assert out.count("u0->") == 3

    def test_match_quiet(self, graph_files, capsys):
        data, query = graph_files
        main(["match", "--data", data, "--query", query, "--quiet"])
        out = capsys.readouterr().out
        assert "u0->" not in out
        assert "# 3 embedding(s)" in out

    def test_match_with_baseline(self, graph_files, capsys):
        data, query = graph_files
        main(["match", "--data", data, "--query", query, "--algorithm", "QuickSI", "--quiet"])
        assert "[QuickSI]" in capsys.readouterr().out

    def test_count(self, graph_files, capsys):
        data, query = graph_files
        assert main(["count", "--data", data, "--query", query]) == 0
        assert capsys.readouterr().out.startswith("3 embedding(s)")

    def test_count_with_limit_marks_saturation(self, graph_files, capsys):
        data, query = graph_files
        main(["count", "--data", data, "--query", query, "--limit", "2"])
        assert capsys.readouterr().out.startswith("2+")

    def test_match_workers_matches_sequential(self, tmp_path, capsys):
        """Differential: --workers 2 must emit the same embedding lines."""
        ex = figure1_example(8, 8)
        data_path, query_path = tmp_path / "d.graph", tmp_path / "q.graph"
        save_graph(ex.data, data_path)
        save_graph(ex.query, query_path)
        args = ["match", "--data", str(data_path), "--query", str(query_path)]
        assert main(args) == 0
        sequential = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        seq_lines = sorted(l for l in sequential.splitlines() if l.startswith("u0->"))
        par_lines = sorted(l for l in parallel.splitlines() if l.startswith("u0->"))
        assert seq_lines and par_lines == seq_lines

    def test_count_workers_matches_sequential(self, tmp_path, capsys):
        ex = figure1_example(8, 8)
        data_path, query_path = tmp_path / "d.graph", tmp_path / "q.graph"
        save_graph(ex.data, data_path)
        save_graph(ex.query, query_path)
        args = ["count", "--data", str(data_path), "--query", str(query_path)]
        assert main(args) == 0
        sequential = capsys.readouterr().out.split()[0]
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out.split()[0] == sequential == "8"

    def test_match_workers_rejects_baselines(self, graph_files, capsys):
        data, query = graph_files
        rc = main(
            ["match", "--data", data, "--query", query,
             "--algorithm", "QuickSI", "--workers", "2"]
        )
        assert rc == 2
        assert "requires CFL-Match" in capsys.readouterr().err

    def test_match_workers_with_limit(self, tmp_path, capsys):
        ex = figure1_example(10, 10)
        data_path, query_path = tmp_path / "d.graph", tmp_path / "q.graph"
        save_graph(ex.data, data_path)
        save_graph(ex.query, query_path)
        assert main(
            ["match", "--data", str(data_path), "--query", str(query_path),
             "--workers", "2", "--limit", "3", "--quiet"]
        ) == 0
        assert "# 3 embedding(s)" in capsys.readouterr().out

    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "hprd" in out and "9460" in out

    @pytest.mark.parametrize("error", (RuntimeError, KeyboardInterrupt))
    def test_command_errors_leave_main(self, monkeypatch, error):
        """Only a closed stdout ends a command quietly: any other error
        it raises, Ctrl-C included, leaves ``main`` (a non-zero exit)."""
        import repro.cli as cli

        def failing(args):
            raise error("boom")

        monkeypatch.setattr(cli, "_cmd_datasets", failing)
        with pytest.raises(error):
            main(["datasets"])

    def test_experiment_writes_output(self, tmp_path, capsys, monkeypatch):
        # patch in an instant experiment to keep the test fast
        from repro.bench import experiments

        def fake(profile):
            return experiments.ExperimentResult("fig01", "t", [("s", "table")], {})

        monkeypatch.setitem(experiments.EXPERIMENTS, "fig01", fake)
        monkeypatch.setattr("repro.cli.run_experiment", lambda n, p: fake(None))
        out_dir = tmp_path / "results"
        assert main(["experiment", "fig01", "--out", str(out_dir)]) == 0
        assert (out_dir / "fig01.txt").exists()
        assert "fig01" in capsys.readouterr().out
