"""Replay every minimized reproducer in ``tests/corpus/``.

Corpus entries are written by the fuzz engine when it finds a mismatch
(see docs/testing.md).  Once the underlying bug is fixed the entry stays
here forever as a regression test: replay re-runs every registered
matcher on the stored instance against the brute-force oracle.
"""

import json
from pathlib import Path

import pytest

from repro.testing.corpus import (
    graph_from_dict,
    graph_to_dict,
    load_corpus,
    replay_entry,
    save_reproducer,
)
from repro.graph import Graph
from repro.graph.dynamic import Delta

CORPUS_DIR = Path(__file__).resolve().parents[1] / "corpus"

_ENTRIES = load_corpus(CORPUS_DIR)


@pytest.mark.parametrize(
    "path,entry",
    _ENTRIES,
    ids=[path.name for path, _ in _ENTRIES],
)
def test_corpus_entry_replays_clean(path, entry):
    mismatches = replay_entry(entry)
    assert mismatches == [], (
        f"{path.name} (captured from {entry.get('seed')!r}, "
        f"kind={entry.get('kind')!r}) still mismatches: "
        + "; ".join(m.describe() for m in mismatches)
    )


def test_corpus_is_not_empty():
    """The corpus ships with at least one seed entry so the replay
    convention is always exercised."""
    assert _ENTRIES, f"no corpus entries under {CORPUS_DIR}"


class TestCorpusIO:
    def test_graph_round_trip(self):
        graph = Graph([0, 1, 2], [(0, 1), (1, 2)])
        assert graph_from_dict(graph_to_dict(graph)) == graph

    def test_save_is_idempotent(self, tmp_path):
        data = Graph([0, 0], [(0, 1)])
        query = Graph([0], [])
        first = save_reproducer(
            tmp_path, data, query, kind="differential", matcher="X", detail="d",
        )
        second = save_reproducer(
            tmp_path, data, query, kind="differential", matcher="X",
            detail="different detail, same instance",
        )
        assert first == second
        assert len(list(tmp_path.glob("*.json"))) == 1

    def test_load_missing_directory_is_empty(self, tmp_path):
        assert load_corpus(tmp_path / "nope") == []

    def test_saved_entry_replays(self, tmp_path):
        data = Graph([0, 1, 0], [(0, 1), (1, 2)])
        query = Graph([0, 1], [(0, 1)])
        path = save_reproducer(
            tmp_path, data, query, kind="seed-example", matcher="CFL-Match",
            detail="synthetic",
        )
        entries = load_corpus(tmp_path)
        assert [p for p, _ in entries] == [path]
        assert replay_entry(entries[0][1]) == []

    def test_delta_entries_replay_at_their_recorded_interval(self, tmp_path, monkeypatch):
        """A fuzz-found delta entry records the interval between compared
        steps it failed at, and replay uses it; an entry without one
        (hand-written reproducers) is compared after every delta."""
        import repro.testing.dynamic as dynamic_harness

        intervals = []
        monkeypatch.setattr(
            dynamic_harness, "incremental_differential_check",
            lambda data, query, deltas, sync_every: intervals.append(sync_every) or [],
        )
        data = Graph([0, 1, 0], [(0, 1)])
        query = Graph([0, 1], [(0, 1)])
        deltas = [Delta.add_edge(1, 2), Delta.remove_edge(0, 1)]
        found = save_reproducer(
            tmp_path, data, query, kind="differential", matcher="incremental/kernel",
            detail="d", deltas=deltas, sync_every=3,
        )
        entry = json.loads(found.read_text())
        assert entry["sync_every"] == 3
        assert replay_entry(entry) == []
        del entry["sync_every"]
        assert replay_entry(entry) == []
        assert intervals == [3, 1]
