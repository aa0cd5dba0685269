"""Metamorphic relations: correctness oracles that need no ground truth.

Each relation transforms an instance in a way whose effect on the
embedding set is *provable*, then checks the matcher honors it:

========================  ============================================
``vertex-permutation``    permuting data vertex ids permutes embeddings
``label-renaming``        bijective label renaming leaves them unchanged
``disjoint-union``        counts add over disjoint data unions
``edge-monotonicity``     adding a data edge never removes an embedding
``filter-ablation``       every CFL-Match configuration agrees
========================  ============================================

Two further relations extend the oracle from *embeddings* to *search
counters* (the observability layer of :mod:`repro.core.stats`):

==============================  ========================================
``stats-vertex-permutation``    permuting data vertex ids leaves every
                                counter identical (exhaustive runs
                                explore an isomorphic search tree) when
                                neither run backjumps; otherwise every
                                counter outside Core-Match is identical
                                and each run's search counters equal the
                                failing-set model's
``stats-filter-ablation``       weakening the CPI (top-down only, or
                                naive) while pinning the full plan's
                                root and matching order never *decreases*
                                partial-match expansions when neither
                                run backjumps (filters are pruning-only,
                                so less filtering means a superset search
                                tree); otherwise each run's search
                                counters equal the failing-set model's
==============================  ========================================

One relation pins the two enumeration engines to each other:

==============================  ========================================
``engine-identity``             the kernel and reference engines return
                                the same embedding *list* with identical
                                ``nodes``/``backtracks``/``backjumps``/
                                ``embeddings``/``leaf_shortcircuits``
                                and per-stage nodes, for a full search,
                                a random ``limit`` and a generator closed
                                after a random number of embeddings, and
                                the same ``count()`` with those counters,
                                the NEC counters, per-stage nodes and
                                budget left, in full and under a random
                                ``limit`` and ``max_expansions``; the
                                full search's core+forest ``nodes`` and
                                ``backjumps`` also equal the failing-set
                                model's (:mod:`repro.testing.failing_sets`)
==============================  ========================================

Two dynamic relations (PR 8) extend the oracle to the mutation layer:

==========================  ===========================================
``delta-commutativity``     applying a delta stream then matching
                            equals matching on the final graph built
                            from scratch (incremental index maintenance
                            is invisible to matchers)
``insert-remove-inverse``   adding then removing the same edge restores
                            bit-identical SearchStats candidate counts
                            through the incremental repair path
==========================  ===========================================

Relations return ``None`` on success or a human-readable failure detail,
and skip (return ``None``) on inputs outside their precondition (e.g. a
disconnected query for ``disjoint-union``).
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence

from ..bench.harness import make_matcher
from ..core.core_match import SearchTimeout
from ..core.dynamic import IncrementalMatcher
from ..core.matcher import CFLMatch
from ..core.stats import (
    BudgetExhausted,
    SearchStats,
    WorkBudget,
    aggregate_stage_stats,
)
from ..core.verify import diff_counts, map_embeddings
from ..graph.dynamic import DynamicGraph
from ..graph.graph import Graph, GraphError
from .differential import Mismatch
from .failing_sets import model_counters

Relation = Callable[[Graph, Graph, str, random.Random], Optional[str]]


def _embedding_set(name: str, data: Graph, query: Graph):
    return set(make_matcher(name, data).search(query))


def permute_vertices(graph: Graph, permutation: Sequence[int]) -> Graph:
    """Relabel vertex ``v`` as ``permutation[v]`` (labels follow)."""
    labels = [0] * graph.num_vertices
    for v, lab in enumerate(graph.labels):
        labels[permutation[v]] = lab
    edges = [(permutation[u], permutation[v]) for u, v in graph.edges()]
    return Graph(labels, edges)


def rename_labels(graph: Graph, mapping: Dict[int, int]) -> Graph:
    """Apply a label bijection to every vertex."""
    return Graph([mapping[lab] for lab in graph.labels], list(graph.edges()))


def disjoint_union(first: Graph, second: Graph) -> Graph:
    """Disjoint union with ``second``'s ids offset past ``first``'s."""
    offset = first.num_vertices
    labels = list(first.labels) + list(second.labels)
    edges = list(first.edges()) + [
        (u + offset, v + offset) for u, v in second.edges()
    ]
    return Graph(labels, edges)


# ----------------------------------------------------------------------
# Relations
# ----------------------------------------------------------------------
def relation_vertex_permutation(data, query, matcher_name, rng) -> Optional[str]:
    if not query.is_connected():
        return None
    permutation = list(range(data.num_vertices))
    rng.shuffle(permutation)
    base = _embedding_set(matcher_name, data, query)
    permuted = _embedding_set(matcher_name, permute_vertices(data, permutation), query)
    expected = set(map_embeddings(base, dict(enumerate(permutation))))
    if expected != permuted:
        missing = sorted(expected - permuted)[:3]
        extra = sorted(permuted - expected)[:3]
        return (
            f"vertex permutation changed the embedding set "
            f"(|base|={len(base)}, |permuted|={len(permuted)}, "
            f"missing={missing}, extra={extra})"
        )
    return None


def relation_label_renaming(data, query, matcher_name, rng) -> Optional[str]:
    if not query.is_connected():
        return None
    alphabet = sorted(set(data.labels) | set(query.labels))
    codomain = [1000 + i for i in range(len(alphabet))]
    rng.shuffle(codomain)
    mapping = dict(zip(alphabet, codomain))
    base = _embedding_set(matcher_name, data, query)
    renamed = _embedding_set(
        matcher_name, rename_labels(data, mapping), rename_labels(query, mapping)
    )
    if base != renamed:
        return (
            f"label renaming changed the embedding set "
            f"(|base|={len(base)}, |renamed|={len(renamed)})"
        )
    return None


def relation_disjoint_union(data, query, matcher_name, rng) -> Optional[str]:
    if not query.is_connected():
        return None  # a disconnected query can straddle the two halves
    other = Graph(
        [rng.choice(data.labels) for _ in range(rng.randint(1, 6))], []
    )
    if other.num_vertices > 1:
        edges = {
            (min(u, v), max(u, v))
            for u, v in (
                (rng.randrange(other.num_vertices), rng.randrange(other.num_vertices))
                for _ in range(6)
            )
            if u != v
        }
        other = Graph(other.labels, sorted(edges))
    matcher = make_matcher(matcher_name, data)
    separate = matcher.count(query) + make_matcher(matcher_name, other).count(query)
    union = make_matcher(matcher_name, disjoint_union(data, other)).count(query)
    check = diff_counts(separate, union, label="disjoint-union")
    if not check.ok:
        return check.describe()
    return None


def relation_edge_monotonicity(data, query, matcher_name, rng) -> Optional[str]:
    if not query.is_connected():
        return None
    non_edges = [
        (u, v)
        for u in data.vertices()
        for v in range(u + 1, data.num_vertices)
        if not data.has_edge(u, v)
    ]
    if not non_edges:
        return None  # complete data graph: nothing to add
    u, v = rng.choice(non_edges)
    base = _embedding_set(matcher_name, data, query)
    grown = _embedding_set(
        matcher_name, Graph(data.labels, list(data.edges()) + [(u, v)]), query
    )
    lost = base - grown
    if lost:
        return (
            f"adding data edge ({u}, {v}) lost {len(lost)} embedding(s), "
            f"e.g. {sorted(lost)[:3]}"
        )
    return None


#: Every CFL-Match configuration must produce the same embedding set
#: (the paper's filters and decompositions are pruning-only).
ABLATION_CONFIGS = (
    ("cfl/full", {}),
    ("cf/full", {"mode": "cf"}),
    ("match/full", {"mode": "match"}),
    ("cfl/td", {"cpi_mode": "td"}),
    ("cfl/naive", {"cpi_mode": "naive"}),
    ("cfl/full/hierarchical", {"core_strategy": "hierarchical"}),
)


def relation_filter_ablation(data, query, matcher_name, rng) -> Optional[str]:
    """All filter/decomposition configurations agree (matcher-independent:
    always exercises the CFL family)."""
    if not query.is_connected():
        return None
    reference = None
    reference_tag = ""
    for tag, kwargs in ABLATION_CONFIGS:
        found = set(CFLMatch(data, **kwargs).search(query))
        if reference is None:
            reference, reference_tag = found, tag
        elif found != reference:
            return (
                f"configuration {tag} disagrees with {reference_tag} "
                f"(|{reference_tag}|={len(reference)}, |{tag}|={len(found)})"
            )
    return None


#: Counters failing-set backjumping may change: it prunes Core-Match
#: subtrees that hold no complete core mapping, so the forest and leaf
#: stages, the embeddings and every build counter never see it.
_BACKJUMP_COUNTERS = frozenset(
    {
        "nodes",
        "core_expansions",
        "backtracks",
        "injectivity_conflicts",
        "edge_check_failures",
        "backjumps",
    }
)


def _model_mismatch(tag: str, plan, report) -> Optional[str]:
    """Compare one exhaustive run's core+forest ``nodes`` and
    ``backjumps`` with the failing-set model of its plan."""
    stages = report.stage_nodes
    actual = {
        "nodes": stages.get("core", 0) + stages.get("forest", 0),
        "backjumps": report.stats.backjumps,
    }
    expected = model_counters(plan)
    if actual != expected:
        return f"{tag} search counters {actual} differ from the failing-set model {expected}"
    return None


def relation_stats_vertex_permutation(data, query, matcher_name, rng) -> Optional[str]:
    """Permuting data vertex ids leaves the search counters identical.

    An exhaustive run (no limit) explores the whole search tree, and a
    vertex permutation maps that tree isomorphically — candidate sets,
    prune events, expansions, backtracks and conflicts all correspond
    one-to-one.  Backjumping breaks that once it fires: sibling order
    decides which failing set is found first, and the permutation
    reorders siblings.  So when either run backjumps, the counters it
    may change are checked against the failing-set model run by run,
    and every other counter is still compared exactly.
    Matcher-independent: always exercises CFL-Match, whose counters are
    the ones under test.
    """
    if not query.is_connected():
        return None
    permutation = list(range(data.num_vertices))
    rng.shuffle(permutation)
    runs = []
    for tag, graph in (("base", data), ("permuted", permute_vertices(data, permutation))):
        matcher = CFLMatch(graph)
        plan = matcher.prepare(query, use_cache=False)
        runs.append((tag, plan, matcher.run(query, limit=None, prepared=plan)))
    (_, _, base), (_, _, permuted) = runs
    jumped = base.stats.backjumps or permuted.stats.backjumps
    if jumped:
        for tag, plan, report in runs:
            detail = _model_mismatch(tag, plan, report)
            if detail is not None:
                return detail
    base_counters = base.counters()
    permuted_counters = permuted.counters()
    diffs = {
        name: (base_counters[name], permuted_counters[name])
        for name in base_counters
        if base_counters[name] != permuted_counters[name]
        and not (jumped and name in _BACKJUMP_COUNTERS)
    }
    if diffs:
        return f"vertex permutation changed search counters: {diffs}"
    if base.embeddings != permuted.embeddings:
        return (
            f"vertex permutation changed the embedding count "
            f"({base.embeddings} vs {permuted.embeddings})"
        )
    return None


#: CPI ablations for the stats relation: each builds strictly weaker
#: candidate sets than the full (refined) CPI.
_STATS_ABLATIONS = (("cfl/td", {"cpi_mode": "td"}), ("cfl/naive", {"cpi_mode": "naive"}))


def relation_stats_filter_ablation(data, query, matcher_name, rng) -> Optional[str]:
    """Weakening the CPI never decreases partial-match expansions.

    The refined CPI's candidate sets and adjacency are subsets of the
    top-down-only and naive CPIs' (refinement is pruning-only), so with
    the *same* BFS root and matching order pinned via
    :meth:`CFLMatch.prepare_from_cpi`, every node the full configuration
    expands exists in the ablated search tree too.  Backjumping breaks
    the superset argument: a candidate only the weaker CPI has can yield
    the failing set that jumps past siblings.  So when either run
    backjumps, each run is checked against the failing-set model
    instead.
    """
    if not query.is_connected():
        return None
    full = CFLMatch(data)
    full_plan = full.prepare(query, use_cache=False)
    full_report = full.run(query, limit=None, count_only=True, prepared=full_plan)
    for tag, kwargs in _STATS_ABLATIONS:
        ablated = CFLMatch(data, **kwargs)
        ablated_plan = ablated.prepare(query, use_cache=False)
        if ablated_plan.root != full_plan.root:
            continue  # different BFS root: search trees not comparable
        pinned = ablated.prepare_from_cpi(
            query,
            ablated_plan.cpi,
            core_order=full_plan.core_order,
            forest_order=full_plan.forest_order,
        )
        report = ablated.run(query, limit=None, count_only=True, prepared=pinned)
        if report.embeddings != full_report.embeddings:
            return (
                f"ablation {tag} changed the embedding count "
                f"({full_report.embeddings} vs {report.embeddings})"
            )
        if full_report.stats.backjumps or report.stats.backjumps:
            for run_tag, plan, run in (
                ("cfl/full", full_plan, full_report), (tag, pinned, report)
            ):
                detail = _model_mismatch(run_tag, plan, run)
                if detail is not None:
                    return detail
        elif report.stats.expansions < full_report.stats.expansions:
            return (
                f"ablation {tag} decreased expansions "
                f"({full_report.stats.expansions} -> {report.stats.expansions}) "
                f"despite weaker filtering"
            )
    return None


#: Counters the two engines must agree on in every search, truncated or
#: not (the rejection-cause split may differ; see repro.core.kernel).
_ENGINE_COUNTERS = (
    "nodes", "backtracks", "backjumps", "embeddings", "leaf_shortcircuits",
)


def _engine_run(data, query, engine, limit=None, close_after=None):
    """One search's embedding list, engine counters and per-stage nodes."""
    stats = SearchStats()
    stage_stats: dict = {}
    search = CFLMatch(data, engine=engine).search(
        query, limit=limit, stats=stats, stage_stats=stage_stats
    )
    found = list(islice(search, close_after))
    search.close()
    aggregate_stage_stats(stage_stats, into=stats)
    return (
        found,
        {name: getattr(stats, name) for name in _ENGINE_COUNTERS},
        {stage: part.nodes for stage, part in sorted(stage_stats.items())},
    )


#: Counters the two engines' ``count`` must also agree on: the kernel
#: takes them from closed forms, the reference explores combinations.
_COUNT_COUNTERS = _ENGINE_COUNTERS + ("nec_groups", "nec_permutations_skipped")


def _engine_count(data, query, engine, limit=None, max_expansions=None):
    """One count, its counters, per-stage nodes and the budget left
    (the count is ``"exhausted"`` when the budget ran out)."""
    stats = SearchStats()
    stage_stats: dict = {}
    budget = WorkBudget(max_expansions) if max_expansions is not None else None
    try:
        found = CFLMatch(data, engine=engine).count(
            query, limit=limit, stats=stats, stage_stats=stage_stats,
            budget=budget,
        )
    except BudgetExhausted:
        found = "exhausted"
    aggregate_stage_stats(stage_stats, into=stats)
    return (
        found,
        {name: getattr(stats, name) for name in _COUNT_COUNTERS},
        {stage: part.nodes for stage, part in sorted(stage_stats.items())},
        budget.remaining if budget is not None else None,
    )


def relation_engine_identity(data, query, matcher_name, rng) -> Optional[str]:
    """The kernel engine is the reference engine, observably.

    Both engines must return the same embeddings in the same order with
    the same engine counters and per-stage node counts: for a full
    search, under a random ``limit``, and when the consumer closes the
    generator after a random number of embeddings (the kernel emits
    Leaf-Match in blocks and settles its counters when a block ends or
    the generator closes).  ``count`` must agree the same way, in full
    and under a random ``limit`` and ``max_expansions`` (the kernel
    counts leaves in closed form).  The full search's core+forest
    ``nodes`` and ``backjumps`` must also equal the failing-set model's,
    an oracle that shares no code with either engine.
    Matcher-independent.
    """
    if not query.is_connected():
        return None
    full = _engine_run(data, query, "reference")
    model = model_counters(CFLMatch(data).prepare(query, use_cache=False))
    searched = {
        "nodes": full[2].get("core", 0) + full[2].get("forest", 0),
        "backjumps": full[1]["backjumps"],
    }
    if searched != model:
        return (
            f"full search counters {searched} differ from the failing-set "
            f"model {model}"
        )
    total = len(full[0])
    runs = (
        ("full search", {}),
        ("limit", {"limit": rng.randint(1, total + 1)}),
        ("closed", {"close_after": rng.randint(1, total + 1)}),
    )
    for tag, kwargs in runs:
        reference = full if not kwargs else _engine_run(
            data, query, "reference", **kwargs
        )
        kernel = _engine_run(data, query, "kernel", **kwargs)
        label = tag + "".join(f" {key}={value}" for key, value in kwargs.items())
        if kernel[0] != reference[0]:
            return (
                f"{label}: kernel embeddings differ from the reference "
                f"({len(kernel[0])} vs {len(reference[0])}, same set: "
                f"{set(kernel[0]) == set(reference[0])})"
            )
        if kernel[1:] != reference[1:]:
            return (
                f"{label}: kernel counters {kernel[1]} / stages {kernel[2]} "
                f"differ from the reference {reference[1]} / {reference[2]}"
            )
    full_count = _engine_count(data, query, "reference")
    nodes = sum(full_count[2].values())
    counts = (
        ("full count", {}),
        ("count", {"limit": rng.randint(1, total + 1)}),
        ("count", {"max_expansions": rng.randint(0, nodes + 1)}),
        ("count", {"limit": rng.randint(1, total + 1),
                   "max_expansions": rng.randint(0, nodes + 1)}),
    )
    for tag, kwargs in counts:
        reference = full_count if not kwargs else _engine_count(
            data, query, "reference", **kwargs
        )
        kernel = _engine_count(data, query, "kernel", **kwargs)
        if kernel != reference:
            label = tag + "".join(f" {key}={value}" for key, value in kwargs.items())
            return f"{label}: kernel {kernel} differs from the reference {reference}"
    return None


def relation_delta_commutativity(data, query, matcher_name, rng) -> Optional[str]:
    """Applying a delta stream then matching equals matching on the final
    graph built from scratch.

    The left side reads the :class:`DynamicGraph`'s incrementally
    maintained label index and NLF/MND caches; the right side builds the
    same labels/edges cold.  Any divergence is an index-maintenance bug.
    """
    if not query.is_connected():
        return None
    from .workloads import generate_delta_stream

    dynamic = DynamicGraph.from_graph(data)
    deltas = generate_delta_stream(dynamic, rng, rng.randint(3, 8))
    for delta in deltas:
        dynamic.apply(delta)
    incremental = _embedding_set(matcher_name, dynamic, query)
    rebuilt = _embedding_set(matcher_name, dynamic.to_static(), query)
    if incremental != rebuilt:
        stream = ", ".join(d.format() for d in deltas)
        return (
            f"delta stream [{stream}] broke commutativity "
            f"(|incremental|={len(incremental)}, |rebuilt|={len(rebuilt)})"
        )
    return None


def relation_insert_remove_inverse(data, query, matcher_name, rng) -> Optional[str]:
    """Adding then removing the same edge is a no-op: the repaired plan's
    enumeration must restore bit-identical SearchStats candidate counts.

    Matcher-independent: always exercises :class:`IncrementalMatcher`,
    whose repair path is the machinery under test.
    """
    if not query.is_connected():
        return None
    non_edges = [
        (u, v)
        for u in data.vertices()
        for v in range(u + 1, data.num_vertices)
        if not data.has_edge(u, v)
    ]
    if not non_edges:
        return None  # complete data graph: nothing to insert
    u, v = rng.choice(non_edges)
    dynamic = DynamicGraph.from_graph(data)
    matcher = IncrementalMatcher(dynamic, engine="reference")
    before_stats = SearchStats()
    before = list(matcher.search(query, stats=before_stats))
    dynamic.add_edge(u, v)
    dynamic.remove_edge(u, v)
    after_stats = SearchStats()
    after = list(matcher.search(query, stats=after_stats))
    if before != after:
        return (
            f"insert+remove of edge ({u}, {v}) changed the embedding list "
            f"({len(before)} -> {len(after)})"
        )
    if before_stats.to_dict() != after_stats.to_dict():
        diffs = {
            name: (before_stats.to_dict()[name], after_stats.to_dict()[name])
            for name in before_stats.to_dict()
            if before_stats.to_dict()[name] != after_stats.to_dict()[name]
        }
        return (
            f"insert+remove of edge ({u}, {v}) did not restore "
            f"search counters: {diffs}"
        )
    return None


METAMORPHIC_RELATIONS: Dict[str, Relation] = {
    "vertex-permutation": relation_vertex_permutation,
    "label-renaming": relation_label_renaming,
    "disjoint-union": relation_disjoint_union,
    "edge-monotonicity": relation_edge_monotonicity,
    "filter-ablation": relation_filter_ablation,
    "stats-vertex-permutation": relation_stats_vertex_permutation,
    "stats-filter-ablation": relation_stats_filter_ablation,
    "engine-identity": relation_engine_identity,
    "delta-commutativity": relation_delta_commutativity,
    "insert-remove-inverse": relation_insert_remove_inverse,
}


def metamorphic_check(
    data: Graph,
    query: Graph,
    matcher_name: str,
    rng: random.Random,
    relations: Optional[Sequence[str]] = None,
) -> List[Mismatch]:
    """Run the selected relations; every violation becomes a Mismatch."""
    names = list(relations) if relations is not None else sorted(METAMORPHIC_RELATIONS)
    mismatches: List[Mismatch] = []
    for name in names:
        relation = METAMORPHIC_RELATIONS[name]
        try:
            detail = relation(data, query, matcher_name, rng)
        except SearchTimeout:
            continue
        except (ValueError, GraphError) as exc:
            if "connected" in str(exc):
                continue  # matcher rejects some transformed input: fine
            detail = f"raised {type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail is not None:
            mismatches.append(Mismatch(matcher_name, f"metamorphic:{name}", detail))
    return mismatches
