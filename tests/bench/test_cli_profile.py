"""The ``cfl-match profile`` command and its JSON schema contract."""

import json
import multiprocessing

import pytest

from repro.cli import main
from repro.core import CFLMatch
from repro.core.profile import (
    PROFILE_SCHEMA,
    profile_query,
    validate_profile,
    validate_schema,
)
from repro.graph import save_graph
from repro.testing.workloads import WorkloadSpec, generate_case
from repro.workloads.paper_graphs import figure1_example, figure3_example


@pytest.fixture
def graph_files(tmp_path):
    ex = figure3_example()
    data_path = tmp_path / "data.graph"
    query_path = tmp_path / "query.graph"
    save_graph(ex.data, data_path)
    save_graph(ex.query, query_path)
    return str(data_path), str(query_path)


class TestProfileCommand:
    def test_json_output_validates_and_has_ten_plus_counters(
        self, graph_files, capsys
    ):
        data, query = graph_files
        assert main(["profile", data, query, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_profile(payload) == []
        assert payload["embeddings"] == 3
        assert payload["status"] == "ok"
        assert len(payload["counters"]) >= 10
        assert set(payload["phase_times_s"]) == {
            "decomposition", "cpi_build", "cpi_repair", "ordering",
            "enumeration", "segment_attach",
        }

    def test_out_writes_the_same_json(self, graph_files, tmp_path, capsys):
        data, query = graph_files
        out = tmp_path / "profile.json"
        assert main(["profile", data, query, "--json", "--out", str(out)]) == 0
        stdout_payload = json.loads(capsys.readouterr().out)
        file_payload = json.loads(out.read_text())
        assert file_payload == stdout_payload

    def test_human_rendering_lists_counters_and_stages(self, graph_files, capsys):
        data, query = graph_files
        assert main(["profile", data, query]) == 0
        out = capsys.readouterr().out
        assert "status=ok" in out
        assert "phase times (ms):" in out
        assert "core" in out and "leaf" in out
        assert "cpi_candidates_final" in out

    def test_budget_flag_flags_the_status(self, graph_files, capsys):
        data, query = graph_files
        assert main(
            ["profile", data, query, "--json", "--max-expansions", "2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["status"] == "budget_exhausted"
        assert payload["counters"]["nodes"] <= 2
        assert validate_profile(payload) == []


class TestProfileQuery:
    def test_workers_aggregate_equals_sequential(self, tmp_path):
        ex = figure1_example(20, 100)
        sequential = profile_query(ex.data, ex.query, workers=1, count_only=False)
        aggregated = profile_query(ex.data, ex.query, workers=4, count_only=False)
        assert validate_profile(sequential) == []
        assert validate_profile(aggregated) == []
        assert aggregated["embeddings"] == sequential["embeddings"] == 20
        assert aggregated["counters"] == sequential["counters"]

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="fork start method unavailable",
    )
    def test_workers_prepare_the_query_once(self, monkeypatch):
        """The profiled plan is the one the pool enumerates: one fresh
        preparation in total, counted across the worker processes too."""
        case = generate_case(11, 1, WorkloadSpec(scenarios=("dense",)))
        counter = multiprocessing.get_context("fork").Value("i", 0)
        original = CFLMatch._prepare_fresh

        def counted(self, query, **kwargs):
            with counter.get_lock():
                counter.value += 1
            return original(self, query, **kwargs)

        monkeypatch.setattr(CFLMatch, "_prepare_fresh", counted)
        profile = profile_query(case.data, case.query, workers=2)
        assert validate_profile(profile) == []
        assert profile["embeddings"] == CFLMatch(case.data).count(case.query)
        assert counter.value == 2  # the profile's, then the check's

    def test_workers_reject_sequential_only_budgets(self):
        ex = figure3_example()
        with pytest.raises(ValueError):
            profile_query(ex.data, ex.query, workers=2, max_expansions=5)
        with pytest.raises(ValueError):
            profile_query(ex.data, ex.query, workers=2, time_limit_s=1.0)


class TestSchema:
    def test_checked_in_schema_matches_the_module(self):
        """docs/profile.schema.json is generated from PROFILE_SCHEMA; CI
        validates profile output against the checked-in copy, so the two
        must never drift."""
        from pathlib import Path

        checked_in = json.loads(
            (Path(__file__).resolve().parents[2] / "docs" / "profile.schema.json")
            .read_text()
        )
        assert checked_in == PROFILE_SCHEMA

    def test_validator_catches_missing_and_extra_keys(self):
        ex = figure3_example()
        payload = profile_query(ex.data, ex.query)
        broken = dict(payload)
        del broken["counters"]
        assert any("counters" in e for e in validate_profile(broken))
        extra = dict(payload)
        extra["surprise"] = 1
        assert any("surprise" in e for e in validate_profile(extra))

    def test_validator_checks_types_and_enums(self):
        assert validate_schema(3, {"type": "integer"}) == []
        assert validate_schema(True, {"type": "integer"}) != []
        assert validate_schema("nope", {"type": "number"}) != []
        assert validate_schema("ok", {"enum": ["ok", "timed_out"]}) == []
        assert validate_schema("bad", {"enum": ["ok", "timed_out"]}) != []
        assert validate_schema(-1, {"type": "integer", "minimum": 0}) != []
