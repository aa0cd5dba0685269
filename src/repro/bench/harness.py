"""Benchmark harness: run matchers over query sets with budgets.

Mirrors the paper's methodology (Section 6): for each query set, run the
algorithm on every query and report the **average CPU time in
milliseconds per query**; a query set whose processing exceeds its time
budget is reported as ``INF`` (the paper's 5-hour limit, scaled down).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..baselines import (
    BoostMatch,
    GraphQLMatch,
    QuickSIMatch,
    SPathMatch,
    TurboISOMatch,
    UllmannMatch,
    VF2Match,
)
from ..core.matcher import CFLMatch, MatchReport
from ..core.stats import SearchStats
from ..graph.graph import Graph

INF = math.inf

#: Algorithm registry: name -> factory(data_graph) -> matcher.
MATCHERS: Dict[str, Callable[[Graph], object]] = {
    "CFL-Match": lambda g: CFLMatch(g),
    "CFL-Match-Reference": lambda g: CFLMatch(g, engine="reference"),
    "CF-Match": lambda g: CFLMatch(g, mode="cf"),
    "Match": lambda g: CFLMatch(g, mode="match"),
    "CFL-Match-TD": lambda g: CFLMatch(g, cpi_mode="td"),
    "CFL-Match-Naive": lambda g: CFLMatch(g, cpi_mode="naive"),
    "CFL-Match-Boost": lambda g: BoostMatch(g, order_strategy="cfl"),
    "CFL-Match-Hierarchical": lambda g: CFLMatch(g, core_strategy="hierarchical"),
    "TurboISO": lambda g: TurboISOMatch(g),
    "TurboISO-Boost": lambda g: BoostMatch(g, order_strategy="turbo"),
    "QuickSI": lambda g: QuickSIMatch(g),
    "SPath": lambda g: SPathMatch(g),
    "GraphQL": lambda g: GraphQLMatch(g),
    "Ullmann": lambda g: UllmannMatch(g),
    "VF2": lambda g: VF2Match(g),
}


def make_matcher(name: str, data: Graph):
    """Instantiate a registered matcher on ``data``."""
    if name not in MATCHERS:
        raise KeyError(f"unknown matcher {name!r}; choose from {sorted(MATCHERS)}")
    return MATCHERS[name](data)


@dataclass
class QuerySetResult:
    """Aggregated outcome of one (algorithm, query set) cell."""

    algorithm: str
    query_set: str
    reports: List[MatchReport] = field(default_factory=list)
    timed_out: bool = False

    @property
    def queries_run(self) -> int:
        return len(self.reports)

    @property
    def avg_total_ms(self) -> float:
        """Average per-query total time in ms; INF on budget exhaustion."""
        if self.timed_out or not self.reports:
            return INF
        return 1000.0 * sum(r.total_time for r in self.reports) / len(self.reports)

    @property
    def avg_enumeration_ms(self) -> float:
        if self.timed_out or not self.reports:
            return INF
        return 1000.0 * sum(r.enumeration_time for r in self.reports) / len(self.reports)

    @property
    def avg_ordering_ms(self) -> float:
        if self.timed_out or not self.reports:
            return INF
        return 1000.0 * sum(r.ordering_time for r in self.reports) / len(self.reports)

    @property
    def avg_embeddings(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.embeddings for r in self.reports) / len(self.reports)

    @property
    def avg_index_size(self) -> float:
        if not self.reports:
            return 0.0
        return sum(r.cpi_size for r in self.reports) / len(self.reports)

    def counter_totals(self) -> Dict[str, int]:
        """Search counters summed across every query in the cell.

        Merges each report's enumeration stats with its CPI-build stats
        (baseline matchers carry default-zero stats, so the totals are
        meaningful only for CFL-Match variants but safe for all).
        """
        total = SearchStats()
        for r in self.reports:
            total.merge(r.stats)
            total.merge(r.build_stats)
        return total.to_dict()


def run_query_set(
    matcher,
    queries: Sequence[Graph],
    limit: Optional[int],
    set_budget_s: float,
    query_set_name: str = "",
) -> QuerySetResult:
    """Run ``matcher`` over all queries within a wall-clock budget.

    Each query inherits the remaining set budget as its deadline; when the
    budget runs dry before the set finishes, the cell is marked INF
    (``timed_out``), like the paper's 5-hour cut-off.
    """
    result = QuerySetResult(
        algorithm=getattr(matcher, "name", type(matcher).__name__),
        query_set=query_set_name,
    )
    set_deadline = time.perf_counter() + set_budget_s
    for query in queries:
        now = time.perf_counter()
        if now >= set_deadline:
            result.timed_out = True
            break
        report = matcher.run(query, limit=limit, deadline=set_deadline)
        result.reports.append(report)
        if report.timed_out:
            result.timed_out = True
            break
    return result


def run_algorithms(
    data: Graph,
    algorithms: Sequence[str],
    query_sets: Dict[str, Sequence[Graph]],
    limit: Optional[int],
    set_budget_s: float,
) -> List[QuerySetResult]:
    """Cross product of algorithms x query sets on one data graph."""
    results: List[QuerySetResult] = []
    for name in algorithms:
        matcher = make_matcher(name, data)
        for set_name, queries in query_sets.items():
            results.append(
                run_query_set(matcher, queries, limit, set_budget_s, set_name)
            )
    return results


def format_ms(value: float) -> str:
    """Human-readable milliseconds, with the paper's INF convention."""
    if value == INF:
        return "INF"
    if value >= 100:
        return f"{value:.0f}"
    if value >= 1:
        return f"{value:.1f}"
    return f"{value:.3f}"
