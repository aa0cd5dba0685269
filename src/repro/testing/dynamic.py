"""Incremental-vs-recompute differential harness for dynamic matching.

The only trustworthy oracle for incremental CPI repair is full
recomputation: after every delta, an
:class:`~repro.core.dynamic.IncrementalMatcher` — and a plain
:class:`~repro.core.matcher.CFLMatch` reused over the live graph — must
produce exactly what a cold :class:`~repro.core.matcher.CFLMatch` over
a from-scratch copy of the mutated graph produces — the same
embeddings, in the same enumeration order, with the same enumeration
counters, and (stronger still) the same root, core and forest orders
and CPI contents.  This module
packages that oracle as

* :func:`incremental_differential_check` — one ``(data, query, stream)``
  instance, replayed under every requested engine and compared every
  ``sync_every``-th delta (the fuzz loop draws that interval from the
  case seed, :func:`sync_interval`, so one synchronization also absorbs
  several deltas, and its reproducers record it);
* :func:`generate_delta_case` — the seeded workload: a base fuzz case
  from :mod:`repro.testing.workloads` plus a seeded delta stream;
* :func:`run_incremental_fuzz` — the budgeted loop CI runs, with
  delta-stream shrinking and corpus capture on failure;
* :func:`generate_label_disjoint_case` / :func:`label_disjoint_check` —
  edge flips that touch no query label, between cached queries: the
  plan object must survive every flip (the label-disjoint fast path)
  and still answer exactly like a fresh matcher, although its kernel
  reads the graph's live rows.

Build counters are deliberately *not* compared: repair counts only the
recomputed units (that asymmetry **is** the speedup being claimed), so
the oracle pins enumeration-visible state instead.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..core.dynamic import IncrementalMatcher
from ..core.matcher import CFLMatch
from ..core.stats import SearchStats, monotonic_now
from ..graph.dynamic import Delta, DynamicGraph
from ..graph.graph import Graph, GraphError
from .differential import Mismatch
from .engine import MismatchRecord
from .shrinker import shrink_delta_case
from .workloads import (
    DYNAMIC_BASE_SCENARIOS,
    WorkloadSpec,
    generate_case,
    generate_delta_stream,
)

#: Engines whose incremental path the differential harness exercises.
DYNAMIC_ENGINES: Tuple[str, ...] = ("reference", "kernel")

#: Mutation-log length of the harness's graphs: a sync over more deltas
#: than this (a ``sync_every`` of 4) finds a log gap and rebuilds.
_LOG_LIMIT = 3


@dataclass(frozen=True)
class DeltaCase:
    """One seeded dynamic instance: base case plus its delta stream."""

    index: int
    scenario: str
    seed: str
    data: Graph = field(compare=False)
    query: Graph = field(compare=False)
    deltas: Tuple[Delta, ...] = field(compare=False, default=())

    def describe(self) -> str:
        return (
            f"delta-case {self.index} [{self.scenario}] seed={self.seed!r}: "
            f"query(|V|={self.query.num_vertices}) in "
            f"data(|V|={self.data.num_vertices}, |E|={self.data.num_edges}) "
            f"+ {len(self.deltas)} delta(s)"
        )


def generate_delta_case(
    seed: int,
    index: int,
    spec: Optional[WorkloadSpec] = None,
    stream_length: Tuple[int, int] = (4, 12),
) -> DeltaCase:
    """The ``index``-th dynamic case of the stream identified by ``seed``.

    Rotates over the ten *base* scenarios (a dynamic case mutates a
    static starting point, so the ``dynamic-delta`` fuzz scenario itself
    is excluded) and derives the delta stream from an independent
    sub-seed, so the base instance matches the static fuzz stream's.
    """
    if spec is None:
        spec = WorkloadSpec(scenarios=DYNAMIC_BASE_SCENARIOS)
    case = generate_case(seed, index, spec)
    rng = random.Random(f"{case.seed}:deltas")
    length = rng.randint(stream_length[0], stream_length[1])
    deltas = tuple(generate_delta_stream(case.data, rng, length))
    return DeltaCase(
        index=case.index,
        scenario=case.scenario,
        seed=case.seed,
        data=case.data,
        query=case.query,
        deltas=deltas,
    )


def sync_interval(seed: str) -> int:
    """How many deltas the differential applies between two compared
    steps for the fuzz case ``seed``: 1 to 4, drawn from the seed, so a
    rerun of the case synchronizes at the same steps.  An interval of 4
    outruns the harness's mutation log."""
    return random.Random(f"{seed}:sync").randint(1, 4)


def _cpi_payload(prepared) -> Tuple[List[List[int]], List[Dict[int, List[int]]]]:
    cpi = prepared.cpi
    return (
        [list(c) for c in cpi.candidates],
        [{k: list(v) for k, v in table.items()} for table in cpi.adjacency],
    )


_Run = Tuple[Optional[Exception], List[Tuple[int, ...]], SearchStats]


def _run(matcher: Union[IncrementalMatcher, CFLMatch], query: Graph) -> _Run:
    """``(rejection, embeddings, stats)`` of one full enumeration."""
    stats = SearchStats()
    try:
        return None, list(matcher.search(query, stats=stats)), stats
    except (GraphError, ValueError) as exc:
        return exc, [], stats


def _divergence(
    matcher: Union[IncrementalMatcher, CFLMatch],
    query: Graph,
    cold: CFLMatch,
    cold_run: _Run,
    check_cpi: bool,
) -> Optional[str]:
    """How ``matcher`` disagrees with the cold matcher, or ``None``."""
    error, embeddings, stats = _run(matcher, query)
    cold_error, cold_embeddings, cold_stats = cold_run
    if (error is None) != (cold_error is None):
        return f"rejection disagreement (got={error!r}, cold={cold_error!r})"
    if error is not None:
        return None
    if embeddings != cold_embeddings:
        return (
            f"embeddings diverge "
            f"(got={len(embeddings)}, cold={len(cold_embeddings)})"
        )
    got, want = stats.to_dict(), cold_stats.to_dict()
    if got != want:
        diffs = {name: (got[name], want[name]) for name in got if got[name] != want[name]}
        return f"enumeration counters diverge: {diffs}"
    plan, cold_plan = matcher.prepare(query), cold.prepare(query, use_cache=False)
    for name in ("root", "core_order", "forest_order"):
        served, rebuilt = getattr(plan, name), getattr(cold_plan, name)
        if served != rebuilt:
            return f"served {name} differs from rebuilt {name} (got={served}, cold={rebuilt})"
    if check_cpi and _cpi_payload(plan) != _cpi_payload(cold_plan):
        return "served CPI differs from rebuilt CPI"
    return None


def incremental_differential_check(
    data: Graph,
    query: Graph,
    deltas: Sequence[Delta],
    engines: Sequence[str] = DYNAMIC_ENGINES,
    check_cpi: bool = True,
    sync_every: int = 1,
) -> List[Mismatch]:
    """Replay ``deltas`` against matchers over the live graph and cold recompute.

    For every engine, two matchers follow the mutating graph: an
    :class:`IncrementalMatcher` (tag ``incremental/{engine}``), which
    repairs its plans, and one plain :class:`CFLMatch` with its plan
    cache on (tag ``live/{engine}``), which must notice every mutation
    through the data version and recompile over the graph's current
    rows.  At the initial state, after every ``sync_every``-th delta and
    after the last one, each is compared with a freshly constructed
    :class:`CFLMatch` over a from-scratch copy: embeddings, enumeration
    order, full enumeration ``SearchStats``, the plan's root, core and
    forest orders and (with ``check_cpi``) CPI candidates + adjacency
    must be identical.  The matchers are not asked in between, so each
    compared step synchronizes every delta since the last one at once;
    the graph's mutation log keeps 3 entries, so a sync over more deltas
    finds a log gap.  Queries both sides reject (e.g. disconnected)
    count as agreement.  Returns one :class:`Mismatch` per divergence;
    a matcher stops being compared after its first.
    """
    mismatches: List[Mismatch] = []
    for engine in engines:
        dynamic = DynamicGraph.from_graph(data, log_limit=_LOG_LIMIT)
        matchers: Dict[str, Union[IncrementalMatcher, CFLMatch]] = {
            f"incremental/{engine}": IncrementalMatcher(dynamic, engine=engine),
            f"live/{engine}": CFLMatch(dynamic, engine=engine),
        }
        for step in range(len(deltas) + 1):
            if not matchers:
                break
            if step > 0:
                dynamic.apply(deltas[step - 1])
                if step % sync_every and step < len(deltas):
                    continue
            at = "initial" if step == 0 else f"after delta {step - 1} ({deltas[step - 1].format()})"
            cold = CFLMatch(dynamic.to_static(), engine=engine)
            cold_run = _run(cold, query)
            for tag, matcher in list(matchers.items()):
                detail = _divergence(matcher, query, cold, cold_run, check_cpi)
                if detail is not None:
                    mismatches.append(Mismatch(tag, "dynamic-differential", f"{at}: {detail}"))
                if detail is not None or cold_run[0] is not None:
                    # Diverged, or both reject (the same class of
                    # unsupported input): nothing further to compare.
                    del matchers[tag]
    return mismatches


#: Vertices of the fresh-label gadget :func:`generate_label_disjoint_case`
#: appends, so label-disjoint flips exist whatever the base case is.
_GADGET_VERTICES = 8


def generate_label_disjoint_case(
    seed: int,
    index: int,
    spec: Optional[WorkloadSpec] = None,
    stream_length: Tuple[int, int] = (4, 12),
) -> DeltaCase:
    """A dynamic case whose every delta is label-disjoint from the query.

    The base fuzz case gains an isolated gadget of vertices carrying a
    label outside both graphs.  The stream flips edges between
    *eligible* vertices: those whose own label and whose neighbors'
    labels all lie outside the query, so a flip's touch set never meets
    the query's labels.  Flips only join eligible vertices, so the
    eligible set stays the same along the stream.
    """
    if spec is None:
        spec = WorkloadSpec(scenarios=DYNAMIC_BASE_SCENARIOS)
    case = generate_case(seed, index, spec)
    base, query = case.data, case.query
    fresh = max([*base.labels, *query.labels, 0]) + 1
    n = base.num_vertices
    data = Graph(
        [*base.labels, *[fresh] * _GADGET_VERTICES],
        [*base.edges(), *((n + i, n + i + 1) for i in range(0, _GADGET_VERTICES, 2))],
    )
    query_labels = set(query.labels)
    eligible = [
        v for v in data.vertices()
        if data.labels[v] not in query_labels
        and not any(data.labels[w] in query_labels for w in data.adj[v])
    ]
    rng = random.Random(f"{case.seed}:label-disjoint")
    scratch = DynamicGraph.from_graph(data)
    deltas: List[Delta] = []
    for _ in range(rng.randint(stream_length[0], stream_length[1])):
        u, v = rng.sample(eligible, 2)
        delta = (
            Delta.remove_edge(u, v) if scratch.has_edge(u, v)
            else Delta.add_edge(u, v)
        )
        scratch.apply(delta)
        deltas.append(delta)
    return DeltaCase(
        index=case.index,
        scenario=case.scenario,
        seed=f"{case.seed}:label-disjoint",
        data=data,
        query=query,
        deltas=tuple(deltas),
    )


def label_disjoint_check(
    data: Graph,
    query: Graph,
    deltas: Sequence[Delta],
    engines: Sequence[str] = DYNAMIC_ENGINES,
) -> List[Mismatch]:
    """Replay label-disjoint ``deltas`` between cached queries.

    Per engine, one :class:`IncrementalMatcher` prepares ``query`` once;
    after every delta its plan must be the *same object* (tag
    ``incremental/{engine}``, kind ``label-disjoint-rebuilt``), and its
    answers must equal a fresh matcher's over a from-scratch copy —
    embeddings, order, enumeration counters and CPI (kind
    ``dynamic-differential``).  Raises :class:`ValueError` when a delta
    touches a query label: the stream is not label-disjoint.
    """
    mismatches: List[Mismatch] = []
    query_labels = frozenset(query.labels)
    for engine in engines:
        tag = f"incremental/{engine}"
        dynamic = DynamicGraph.from_graph(data)
        matcher = IncrementalMatcher(dynamic, engine=engine)
        try:
            plan = matcher.prepare(query)
        except (GraphError, ValueError):
            continue  # rejected queries have no plan to keep
        for step, delta in enumerate(deltas):
            version = dynamic.version
            dynamic.apply(delta)
            at = f"after delta {step} ({delta.format()})"
            for touch in dynamic.touches_since(version) or ():
                if touch.labels & query_labels:
                    raise ValueError(f"{at} touches query labels")
            if matcher.prepare(query) is not plan:
                mismatches.append(
                    Mismatch(tag, "label-disjoint-rebuilt", f"{at}: plan replaced")
                )
                break
            cold = CFLMatch(dynamic.to_static(), engine=engine)
            detail = _divergence(matcher, query, cold, _run(cold, query), True)
            if detail is not None:
                mismatches.append(
                    Mismatch(tag, "dynamic-differential", f"{at}: {detail}")
                )
                break
    return mismatches


# ----------------------------------------------------------------------
# Budgeted fuzz loop (the CI smoke)
# ----------------------------------------------------------------------
@dataclass
class DynamicFuzzReport:
    """Outcome of one incremental fuzz run; serializes to JSON for CI."""

    seed: int
    budget_seconds: float
    engines: List[str]
    cases_run: int = 0
    cases_skipped: int = 0
    elapsed_seconds: float = 0.0
    scenario_counts: Dict[str, int] = field(default_factory=dict)
    mismatches: List[MismatchRecord] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def to_dict(self) -> Dict:
        payload = asdict(self)
        payload["ok"] = self.ok
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def summary(self) -> str:
        lines = [
            f"dynamic fuzz: seed={self.seed} budget={self.budget_seconds:.0f}s "
            f"engines={','.join(self.engines)} cases={self.cases_run} "
            f"(skipped {self.cases_skipped}) in {self.elapsed_seconds:.1f}s"
        ]
        for name in sorted(self.scenario_counts):
            lines.append(f"  {name}: {self.scenario_counts[name]} case(s)")
        if self.ok:
            lines.append("result: OK — no mismatches")
        else:
            lines.append(f"result: {len(self.mismatches)} MISMATCH(ES)")
            for record in self.mismatches:
                lines.append(
                    f"  case {record.case_index} [{record.scenario}] "
                    f"{record.matcher}: {record.detail}"
                )
                if record.reproducer:
                    lines.append(f"    reproducer: {record.reproducer}")
        return "\n".join(lines)


def _case_is_affordable(case: DeltaCase, max_embeddings: int) -> bool:
    """Gate on the *mutated* graph too: edge churn can inflate results."""
    scratch = DynamicGraph.from_graph(case.data)
    for delta in case.deltas:
        scratch.apply(delta)
    for graph in (case.data, scratch.to_static()):
        try:
            count = CFLMatch(graph).count(case.query, limit=max_embeddings + 1)
        except (ValueError, GraphError):
            return True  # rejected queries cost nothing to check
        if count > max_embeddings:
            return False
    return True


def run_incremental_fuzz(
    seed: int = 0,
    budget_seconds: float = 10.0,
    engines: Sequence[str] = DYNAMIC_ENGINES,
    spec: Optional[WorkloadSpec] = None,
    max_cases: Optional[int] = None,
    corpus_dir: Optional[Path] = None,
    shrink: bool = True,
    max_embeddings: int = 5000,
    max_failures: int = 5,
) -> DynamicFuzzReport:
    """Fuzz the incremental path until the budget or case cap runs out.

    Every case replays its seeded delta stream through
    :func:`incremental_differential_check`, synchronizing every
    :func:`sync_interval`-th delta; failures are shrunk with
    :func:`~repro.testing.shrinker.shrink_delta_case` (minimizing the
    *stream* as well as both graphs) and written to ``corpus_dir``.
    """
    from .corpus import save_reproducer

    report = DynamicFuzzReport(
        seed=seed, budget_seconds=budget_seconds, engines=list(engines)
    )
    started = monotonic_now()
    deadline = started + budget_seconds
    index = 0
    while monotonic_now() < deadline:
        if max_cases is not None and index >= max_cases:
            break
        if len(report.mismatches) >= max_failures:
            break
        case = generate_delta_case(seed, index, spec)
        index += 1
        if not _case_is_affordable(case, max_embeddings):
            report.cases_skipped += 1
            continue
        report.cases_run += 1
        report.scenario_counts[case.scenario] = (
            report.scenario_counts.get(case.scenario, 0) + 1
        )
        sync_every = sync_interval(case.seed)
        mismatches = incremental_differential_check(
            case.data, case.query, case.deltas, engines=engines,
            sync_every=sync_every,
        )
        for mismatch in mismatches:
            record = MismatchRecord(
                case_index=case.index,
                scenario=case.scenario,
                case_seed=case.seed,
                matcher=mismatch.matcher,
                kind=mismatch.kind,
                detail=mismatch.detail,
            )
            data, query, deltas = case.data, case.query, case.deltas
            if shrink:
                engine = mismatch.matcher.split("/", 1)[-1]

                def failing(d: Graph, q: Graph, s: Sequence[Delta]) -> bool:
                    found = incremental_differential_check(
                        d, q, s, engines=(engine,), sync_every=sync_every
                    )
                    return any(m.kind == mismatch.kind for m in found)

                try:
                    shrunk = shrink_delta_case(data, query, deltas, failing)
                    data, query, deltas = shrunk.data, shrunk.query, shrunk.deltas
                except ValueError:
                    pass  # flaky failure: keep the original instance
            record.minimized_data = {
                "vertices": data.num_vertices, "edges": data.num_edges,
            }
            record.minimized_query = {
                "vertices": query.num_vertices, "edges": query.num_edges,
            }
            if corpus_dir is not None:
                path = save_reproducer(
                    Path(corpus_dir), data, query,
                    kind=mismatch.kind, matcher=mismatch.matcher,
                    detail=mismatch.detail, scenario=case.scenario,
                    seed=case.seed, deltas=deltas, sync_every=sync_every,
                )
                record.reproducer = str(path)
            report.mismatches.append(record)
    report.elapsed_seconds = monotonic_now() - started
    return report
