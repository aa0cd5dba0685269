"""Regression corpus: minimized fuzz reproducers replayed by pytest.

Every mismatch the fuzz engine finds is shrunk and written here as a
small JSON file (``tests/corpus/`` by convention).  The test suite
replays every entry on every run: a reproducer checks in as a *failing*
witness of a bug and stays forever as a *passing* regression test once
the bug is fixed — replay re-runs all matchers against the brute-force
oracle rather than trusting counts recorded at capture time.

File names embed a content hash so re-discovering the same minimized
instance is idempotent.

Dynamic reproducers additionally carry a ``deltas`` list (the minimized
mutation stream, in ``Delta.format`` text form); replay routes those
through the incremental-vs-recompute differential instead of the static
matcher registry.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..graph.dynamic import Delta
from ..graph.graph import Graph
from .differential import Mismatch, differential_check
from .oracles import brute_force_count

CORPUS_FORMAT = 1

#: Repo-convention corpus location, relative to the repository root.
DEFAULT_CORPUS_DIRNAME = "tests/corpus"


def graph_to_dict(graph: Graph) -> Dict:
    return {
        "labels": list(graph.labels),
        "edges": [list(edge) for edge in graph.edges()],
    }


def graph_from_dict(payload: Dict) -> Graph:
    return Graph(payload["labels"], [tuple(e) for e in payload["edges"]])


def reproducer_dict(
    data: Graph,
    query: Graph,
    *,
    kind: str,
    matcher: str,
    detail: str,
    scenario: Optional[str] = None,
    seed: Optional[str] = None,
    deltas: Optional[Sequence[Delta]] = None,
    sync_every: Optional[int] = None,
) -> Dict:
    """The canonical JSON payload for one minimized reproducer.

    A delta entry records ``sync_every``, the interval between the
    differential's compared steps it was found with."""
    payload = {
        "format": CORPUS_FORMAT,
        "kind": kind,
        "matcher": matcher,
        "detail": detail,
        "scenario": scenario,
        "seed": seed,
        "query": graph_to_dict(query),
        "data": graph_to_dict(data),
        "oracle_count_at_capture": brute_force_count(query, data),
    }
    if deltas is not None:
        payload["deltas"] = [delta.format() for delta in deltas]
    if sync_every is not None:
        payload["sync_every"] = sync_every
    return payload


def _digest(payload: Dict) -> str:
    key = json.dumps(
        {
            k: payload[k]
            for k in ("kind", "matcher", "query", "data", "deltas", "sync_every")
            if k in payload
        },
        sort_keys=True,
    )
    return hashlib.sha256(key.encode()).hexdigest()[:10]


def save_reproducer(
    directory: Path,
    data: Graph,
    query: Graph,
    *,
    kind: str,
    matcher: str,
    detail: str,
    scenario: Optional[str] = None,
    seed: Optional[str] = None,
    deltas: Optional[Sequence[Delta]] = None,
    sync_every: Optional[int] = None,
) -> Path:
    """Write (idempotently) one reproducer file; returns its path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = reproducer_dict(
        data, query, kind=kind, matcher=matcher, detail=detail,
        scenario=scenario, seed=seed, deltas=deltas, sync_every=sync_every,
    )
    path = directory / f"repro-{_digest(payload)}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def load_corpus(directory: Path) -> List[Tuple[Path, Dict]]:
    """All reproducers under ``directory`` (empty list if absent)."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    entries = []
    for path in sorted(directory.glob("*.json")):
        entries.append((path, json.loads(path.read_text())))
    return entries


def replay_entry(
    entry: Dict, matchers: Optional[Sequence[str]] = None
) -> List[Mismatch]:
    """Re-run the differential check on a stored reproducer.

    Forces the brute-force oracle (corpus entries are minimized, hence
    tiny); an empty return means the recorded bug is fixed/absent.
    Entries carrying a ``deltas`` stream replay through the
    incremental-vs-recompute differential instead, synchronizing every
    ``sync_every`` deltas as recorded (every delta for entries that
    record none).
    """
    data = graph_from_dict(entry["data"])
    query = graph_from_dict(entry["query"])
    if entry.get("deltas"):
        from .dynamic import incremental_differential_check

        deltas = [Delta.parse(line) for line in entry["deltas"]]
        return incremental_differential_check(
            data, query, deltas, sync_every=entry.get("sync_every", 1)
        )
    return differential_check(data, query, matchers=matchers, oracle="brute")
