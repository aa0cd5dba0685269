"""Per-layer tracing from outside the program.

:class:`Tracer` temporarily replaces the public functions of each
``repro.core``/``repro.graph`` layer — the names ``repro.core.matcher``
(and ``repro.core.dynamic``) import, plus a few methods — with wrappers
that record spans, and restores the originals on :meth:`Tracer.remove`.
A span is one call, or one ``next()`` of a generator (search,
Core/Forest-Match, Leaf-Match).  Spans are aggregated as they close: a
span's *self* time is its duration minus the durations of the spans it
directly contains, so over one root span (a request, or the set-up) the
self times of every span plus the root's own self time — the part no
layer claims, reported as unattributed — add up to the root's duration.

Counters are read at the same boundaries: CandVerify and CPI totals
from the ``stats`` a build fills, search nodes and backtracks across
each kernel ``next()``, NEC groups across each leaf count, plan-cache
hits across each ``prepare``.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Callable, Dict, Iterator, List, Tuple

import repro.core.cpi_builder as cpi_builder
import repro.core.dynamic as core_dynamic
import repro.core.matcher as matcher
import repro.graph.ingest as ingest
import repro.graph.io as graph_io
from repro.core.dynamic import ContinuousQuery, IncrementalMatcher
from repro.core.kernel import MODE_ROOT, KernelBacktracker
from repro.core.matcher import CFLMatch
from repro.graph.dynamic import DynamicGraph

UNATTRIBUTED = "trace.unattributed"

#: build counters copied from a CPI build's ``stats`` (metric, field)
BUILD_COUNTERS = (
    ("core.filters.nlf_pruned", "filter_nlf_pruned"),
    ("core.filters.mnd_pruned", "filter_mnd_pruned"),
    ("core.filters.degree_pruned", "filter_degree_pruned"),
    ("core.filters.verified", "cpi_candidates_structural"),
    ("core.cpi_builder.candidates_final", "cpi_candidates_final"),
    ("core.cpi_builder.edges_final", "cpi_edges_final"),
    ("core.cpi_builder.refine_pruned", "refine_candidates_pruned"),
)


class Tracer:
    """Span and counter aggregation for one traced pass."""

    def __init__(self) -> None:
        #: self seconds per span name (``UNATTRIBUTED`` for root spans)
        self.self_s: Dict[str, float] = defaultdict(float)
        #: counters read at span boundaries
        self.counts: Dict[str, float] = defaultdict(float)
        #: summed duration of every root span
        self.root_s = 0.0
        #: one entry per open span: the summed duration of its closed children
        self._open: List[float] = []
        self._restore: List[Tuple[Any, str, Any]] = []
        self._repairs_seen: Dict[int, Tuple[int, int]] = {}

    # -- span bookkeeping ------------------------------------------------
    def _enter(self) -> float:
        self._open.append(0.0)
        return perf_counter()

    def _leave(self, name: str, started: float) -> None:
        self._close(name, perf_counter() - started)

    def _close(self, name: str, elapsed: float) -> None:
        self.self_s[name] += elapsed - self._open.pop()
        if self._open:
            self._open[-1] += elapsed
        else:
            self.root_s += elapsed

    @contextmanager
    def root(self) -> Iterator[None]:
        """One request (or set-up): the span every layer span nests in."""
        started = self._enter()
        try:
            yield
        finally:
            self._leave(UNATTRIBUTED, started)

    def _call(self, name: str, fn: Callable) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            started = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(name, started)

        return traced

    def _steps(
        self,
        name: str,
        steps: Iterator[Any],
        count: str = "",
        gaps: bool = False,
        probe: Tuple[Tuple[str, ...], Callable[[], Tuple[int, ...]]] = ((), tuple),
    ) -> Iterator[Any]:
        """Re-yield ``steps``, timing each ``next()`` as one span (and
        counting the items under ``count``, inside the span).

        With ``gaps`` the caller's time between two steps — a search's
        caller materialising each embedding — is moved from the caller's
        span to this one, together with this wrapper's own bookkeeping.
        ``probe`` is ``(keys, read)``: across each step, the growth of each
        value ``read()`` returns is added to the counter at the same
        position in ``keys``."""
        open_, self_s, counts = self._open, self.self_s, self.counts
        keys, read = probe
        last = None
        while True:
            open_.append(0.0)
            started = perf_counter()
            if last is not None:
                self_s[name] += started - last
                open_[-2] += started - last
            before = read()
            try:
                item = next(steps)
                if count:
                    counts[count] += 1
            except StopIteration:
                return
            finally:
                for key, old, new in zip(keys, before, read()):
                    counts[key] += new - old
                end = perf_counter()
                self._close(name, end - started)
            if gaps:
                last = end
            yield item

    # -- counters --------------------------------------------------------
    def _counted(self, fn: Callable, fields: Tuple[Tuple[str, str], ...]) -> Callable:
        """``fn`` adding what each call adds to its ``stats=`` counters
        (``(metric, SearchStats field)`` pairs)."""

        def counted(*args: Any, **kwargs: Any) -> Any:
            stats = kwargs.get("stats")
            before = [getattr(stats, field, 0) for _, field in fields]
            result = fn(*args, **kwargs)
            for (metric, field), old in zip(fields, before):
                self.counts[metric] += getattr(stats, field, 0) - old
            return result

        return counted

    def _extend(self, fn: Callable) -> Callable:
        """``KernelBacktracker.extend`` as steps tagged core or forest (the
        core stage starts at the query root), with the stage's search
        nodes and backtracks read across each step."""

        def extend(bt: KernelBacktracker, mapping: List[int], used: bytearray):
            stage, stats = bt.stage, bt.stats
            core = stage.length > 0 and stage.modes[0] == MODE_ROOT
            stage_name = "core" if core else "forest"
            return self._steps(
                f"core.kernel.{stage_name}",
                fn(bt, mapping, used),
                probe=((f"core.kernel.{stage_name}_nodes", "core.kernel.backtracks"),
                       lambda: (stats.nodes, stats.backtracks)),
            )

        return extend

    def _prepare(self, fn: Callable) -> Callable:
        def prepare(matcher_: CFLMatch, *args: Any, **kwargs: Any) -> Any:
            hits = matcher_.plan_cache_hits
            result = fn(matcher_, *args, **kwargs)
            self.counts["core.matcher.prepares"] += 1
            self.counts["core.matcher.plan_cache_hits"] += matcher_.plan_cache_hits - hits
            return result

        return self._call("core.matcher.prepare", prepare)

    def _sync(self, fn: Callable) -> Callable:
        """Count repairs, and label-disjoint no-op repairs, per sync."""

        def sync(*args: Any, **kwargs: Any) -> Any:
            plan = fn(*args, **kwargs)
            stats = plan.build_stats
            now = (stats.cpi_repairs, stats.dirty_region_size)
            seen = self._repairs_seen.get(id(stats))
            self._repairs_seen[id(stats)] = now
            if seen is not None and now[0] > seen[0]:
                self.counts["core.dynamic.repairs_traced"] += now[0] - seen[0]
                if now[1] == seen[1]:
                    self.counts["core.dynamic.noop_repairs"] += now[0] - seen[0]
            return plan

        return self._call("core.dynamic.sync", sync)

    # -- install / remove ------------------------------------------------
    def _replace(self, owner: Any, attr: str, wrapper: Callable[[Any], Any]) -> None:
        if attr not in vars(owner):
            raise RuntimeError(
                f"trace target {getattr(owner, '__name__', owner)}.{attr} no longer exists"
            )
        original = vars(owner)[attr]
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self) -> "Tracer":
        """Replace every traced name; :meth:`remove` puts them back.  A
        name that no longer exists raises, leaving nothing replaced."""

        def span(name: str) -> Callable:
            return lambda fn: self._call(name, fn)

        def steps(name: str, **options: Any) -> Callable:
            return lambda fn: lambda *a, **k: self._steps(name, fn(*a, **k), **options)

        targets = [
            (module, attr, span(name))
            for module in (matcher, core_dynamic)
            for attr, name in (("cfl_decompose", "core.decomposition.decompose"),
                               ("select_root", "core.root_selection.select_root"))
        ] + [
            (matcher, "order_structure", span("core.ordering.order")),
            (matcher, "estimate_tree_embeddings", span("core.ordering.estimate")),
            (matcher, "compile_kernel_plan", span("core.kernel.compile")),
            (matcher, "build_data_csr", span("core.kernel.data_csr")),
            (cpi_builder, "_top_down_construct", span("core.cpi_builder.topdown")),
            (cpi_builder, "_bottom_up_refine", span("core.cpi_builder.refine")),
            (graph_io, "loads_graph", span("graph.io.load_text")),
            (ingest, "load_graph_csr", span("graph.ingest.load_csr")),
            (CFLMatch, "count", span("core.matcher.count")),
            (CFLMatch, "run", span("core.matcher.run")),
            (DynamicGraph, "apply", span("graph.dynamic.apply")),
            (ContinuousQuery, "_refresh", span("core.dynamic.refresh")),
            (matcher, "build_cpi", lambda fn: self._call(
                "core.cpi_builder.build", self._counted(fn, BUILD_COUNTERS))),
            (matcher, "count_leaf_matches", lambda fn: self._call(
                "core.leaf_match.leaf",
                self._counted(fn, (("core.leaf_match.nec_groups", "nec_groups"),)))),
            (matcher, "enumerate_leaf_matches", steps("core.leaf_match.leaf")),
            (CFLMatch, "search",
             steps("core.matcher.emit", count="core.matcher.embeddings", gaps=True)),
            (KernelBacktracker, "extend", self._extend),
            (CFLMatch, "prepare", self._prepare),
            (IncrementalMatcher, "prepare", self._sync),
        ]
        try:
            for owner, attr, wrap in targets:
                self._replace(owner, attr, wrap)
        except RuntimeError:
            self.remove()
            raise
        return self

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
