"""Dynamic-matching suite: incremental repair must be invisible.

The contract under test (see ``repro/core/dynamic.py``):

* after any valid delta stream, an :class:`IncrementalMatcher` returns
  bit-identical embeddings, enumeration order, full enumeration
  ``SearchStats`` and CPI payload to a cold matcher prepared from
  scratch on the mutated graph — on every fuzz scenario, for both the
  reference and kernel engines;
* the repair/rebuild decision (label-disjoint no-op, kept plan, root
  change, renumbering, mutation-log gap) changes only the
  ``cpi_repairs`` / ``cpi_rebuilds`` / ``dirty_region_size`` accounting
  and which plan object is served, never results;
* root re-selection from the kept shortlist passing sets picks the root
  a from-scratch selection picks;
* the initial (traced) build produces exactly the same build counters
  as the production CPI builder;
* :class:`ContinuousQuery` reports exact created/tombstone streams.
"""

import random
from collections import defaultdict
from types import SimpleNamespace

import pytest

import repro.core.root_selection as root_selection
from repro.core.dynamic import (
    ContinuousQuery,
    IncrementalMatcher,
    dirty_region,
)
from repro.core.matcher import CFLMatch
from repro.core.root_selection import ShortlistState, select_root
from repro.core.stats import SearchStats
from repro.graph.dynamic import Delta, DynamicGraph
from repro.graph.graph import Graph, GraphError
from repro.testing.dynamic import (
    DYNAMIC_ENGINES,
    generate_delta_case,
    generate_label_disjoint_case,
    incremental_differential_check,
    label_disjoint_check,
)
from repro.testing.workloads import (
    DYNAMIC_BASE_SCENARIOS,
    WorkloadSpec,
    generate_case,
    generate_delta_stream,
)


def small_instance():
    """A hand-checkable instance: query = one (label 0)-(label 1) edge.

    Data has exactly two matching edges — embeddings (0, 2) and (1, 3) —
    plus a (label 2)-(label 2) edge entirely outside the query's labels.
    """
    data = DynamicGraph([0, 0, 1, 1, 2, 2], [(0, 2), (1, 3), (4, 5)])
    query = Graph([0, 1], [(0, 1)])
    return data, query


def embeddings_of(matcher, query):
    return list(matcher.search(query))


# ----------------------------------------------------------------------
# Differential: incremental repair vs cold re-prepare
# ----------------------------------------------------------------------
class TestIncrementalDifferential:
    @pytest.mark.parametrize("scenario", DYNAMIC_BASE_SCENARIOS)
    @pytest.mark.parametrize("index", [0, 1])
    def test_scenarios_match_recompute(self, scenario, index):
        """Embeddings, order, stats and CPI agree at every stream step,
        for both engines (``incremental_differential_check`` compares
        all four after each delta)."""
        case = generate_delta_case(
            101, index, spec=WorkloadSpec(scenarios=(scenario,))
        )
        assert case.scenario == scenario
        mismatches = incremental_differential_check(
            case.data, case.query, case.deltas
        )
        assert mismatches == [], [m.detail for m in mismatches]

    def test_stats_equality_is_full_dict(self):
        """The differential compares the *complete* counter dict: a
        sequential incremental enumeration reproduces every counter of a
        cold prepare-and-enumerate, not just the embedding count."""
        case = generate_delta_case(13, 2)
        dynamic = DynamicGraph.from_graph(case.data)
        inc = IncrementalMatcher(dynamic, engine="reference")
        for delta in case.deltas:
            dynamic.apply(delta)
        inc_stats = SearchStats()
        got = list(inc.search(case.query, stats=inc_stats))
        cold = CFLMatch(dynamic.to_static(), engine="reference")
        cold_stats = SearchStats()
        want = list(cold.search(case.query, stats=cold_stats))
        assert got == want
        assert inc_stats.to_dict() == cold_stats.to_dict()

    def test_workers_match_sequential_on_mutated_graph(self):
        """A mutated DynamicGraph feeds the parallel path unchanged."""
        from repro.core.parallel import parallel_search_iter

        case = generate_case(
            5, 0, WorkloadSpec(scenarios=("dense",),
                               data_vertices=(30, 30), query_vertices=(5, 5))
        )
        dynamic = DynamicGraph.from_graph(case.data)
        inc = IncrementalMatcher(dynamic)
        rng = random.Random(99)
        for delta in generate_delta_stream(case.data, rng, length=6):
            dynamic.apply(delta)
        sequential = sorted(inc.search(case.query))
        parallel = sorted(
            parallel_search_iter(dynamic, case.query, workers=4)
        )
        assert parallel == sequential


# ----------------------------------------------------------------------
# A plain CFLMatch reused over a mutating graph
# ----------------------------------------------------------------------
class TestLiveMatcher:
    @pytest.mark.parametrize("engine", DYNAMIC_ENGINES)
    def test_reused_matcher_sees_mutation(self, engine):
        """Path 0-1-2 labeled (0, 1, 0) plus an isolated label-1 vertex 3;
        the query is one 0-1 edge.  After ``add_edge(2, 3)`` the matcher
        that answered 2 must answer 3 like a fresh one: its plan cache
        drops plans of an older data version, and the kernel compiles against
        the graph's current CSR."""
        data = DynamicGraph([0, 1, 0, 1], [(0, 1), (1, 2)])
        query = Graph([0, 1], [(0, 1)])
        matcher = CFLMatch(data, engine=engine)
        assert matcher.count(query) == 2
        data.add_edge(2, 3)
        assert matcher.count(query) == 3
        assert CFLMatch(data, engine=engine).count(query) == 3
        assert matcher.prepare_count == 2

    def test_kernel_reads_patched_csr(self):
        """Dense enough that the backward-checked rows hold 29 to 39
        candidates: each flip changes the graph's rows and neighbor sets
        in place, and the reused kernel matcher agrees with the
        reference engine on a cold copy."""
        rng = random.Random("dense-flips")
        n = 40
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.9]
        data = DynamicGraph([0] * n, edges)
        triangle = Graph([0, 0, 0], [(0, 1), (1, 2), (0, 2)])
        matcher = CFLMatch(data, engine="kernel")
        for _ in range(6):
            u, v = rng.sample(range(n), 2)
            if data.has_edge(u, v):
                data.remove_edge(u, v)
            else:
                data.add_edge(u, v)
            cold = CFLMatch(data.to_static(), engine="reference")
            assert list(matcher.search(triangle)) == list(cold.search(triangle))

    def test_differential_gates_the_live_matcher(self, monkeypatch):
        """With the version pinned, plans go stale, and the differential
        harness reports the live-matcher variant."""
        data = DynamicGraph([0, 1, 0, 1], [(0, 1), (1, 2)])
        query = Graph([0, 1], [(0, 1)])
        deltas = [Delta.add_edge(2, 3)]
        assert incremental_differential_check(data, query, deltas) == []
        monkeypatch.setattr(DynamicGraph, "version", property(lambda self: 0))
        found = incremental_differential_check(data, query, deltas)
        assert {m.matcher for m in found} >= {"live/kernel", "live/reference"}


# ----------------------------------------------------------------------
# Repair/rebuild dispatch and accounting
# ----------------------------------------------------------------------
class TestRepairDispatch:
    def test_constructor_guards(self):
        data, _ = small_instance()
        with pytest.raises(TypeError):
            IncrementalMatcher(data.to_static())

    def test_empty_query_rejected(self):
        data, _ = small_instance()
        inc = IncrementalMatcher(data)
        with pytest.raises(GraphError):
            inc.prepare(Graph([], []))

    def test_label_disjoint_delta_is_noop(self):
        """A delta outside the query's labels keeps the plan object."""
        data, query = small_instance()
        inc = IncrementalMatcher(data)
        before = inc.prepare(query)
        data.remove_edge(4, 5)
        after = inc.prepare(query)
        assert after is before
        assert before.build_stats.cpi_repairs == 1
        assert before.build_stats.cpi_rebuilds == 0
        assert before.build_stats.dirty_region_size == 0
        assert embeddings_of(inc, query) == [(0, 2), (1, 3)]

    def test_label_disjoint_deltas_leave_the_plan_timers_alone(self):
        """The fast path's time goes to the registration's lifetime
        timers: a kept plan's ``phase_times`` stay as ``prepare``
        returned them, and the next plan's snapshot carries that time."""
        data, query = small_instance()
        inc = IncrementalMatcher(data)
        plan = inc.prepare(query)
        timers = dict(plan.phase_times)
        for _ in range(3):
            data.remove_edge(4, 5)
            assert inc.prepare(query) is plan
            data.add_edge(4, 5)
            assert inc.prepare(query) is plan
        assert plan.phase_times == timers
        data.add_edge(0, 3)
        repaired = inc.prepare(query)
        assert repaired is not plan
        assert repaired.phase_times["cpi_repair"] > 0.0
        assert repaired.phase_times["cpi_build"] >= timers["cpi_build"]
        assert plan.phase_times == timers

    def test_label_disjoint_flips_keep_the_plan_and_its_answers(self):
        """Flips outside the query's labels keep the plan object, whose
        kernel reads the graph's live rows, and after every flip it
        answers exactly like a fresh matcher."""
        for index in range(10):
            case = generate_label_disjoint_case(19, index)
            assert case.deltas
            assert label_disjoint_check(case.data, case.query, case.deltas) == []

    def test_label_disjoint_check_rejects_a_touching_stream(self):
        data, query = small_instance()
        with pytest.raises(ValueError, match="touches query labels"):
            label_disjoint_check(data.to_static(), query, [Delta.add_edge(0, 3)])

    def test_label_disjoint_check_reports_a_replaced_plan(self, monkeypatch):
        """The check fails when the fast path stops keeping the plan."""
        case = generate_label_disjoint_case(19, 0)
        monkeypatch.setattr(
            IncrementalMatcher, "_sync",
            lambda self, reg: self._plan(reg.query, 0.0, reg),
        )
        found = label_disjoint_check(case.data, case.query, case.deltas)
        assert {m.kind for m in found} == {"label-disjoint-rebuilt"}

    def test_dirty_delta_covering_the_query_repairs(self):
        """A delta whose dirty region is the whole query still repairs:
        repair reuses every clean unit, so it never costs more than a
        rebuild."""
        data, query = small_instance()
        inc = IncrementalMatcher(data)
        inc.prepare(query)
        data.add_edge(0, 3)
        stats = inc.prepare(query).build_stats
        region = dirty_region(query, frozenset({0, 1}))
        assert region == list(query.vertices())
        assert stats.cpi_repairs == 1
        assert stats.cpi_rebuilds == 0
        assert stats.dirty_region_size == len(region)
        assert embeddings_of(inc, query) == [(0, 2), (0, 3), (1, 3)]

    def test_dirty_delta_leaving_the_cpi_unchanged_keeps_the_plan(self):
        """``add_edge(0, 4)`` touches label 0, but vertex 0 still passes
        CandVerify and gains no label-1 neighbor: the repaired CPI is
        the old one, so the plan object, and its timers, are kept."""
        data, query = small_instance()
        inc = IncrementalMatcher(data)
        plan = inc.prepare(query)
        timers = dict(plan.phase_times)
        data.add_edge(0, 4)
        assert inc.prepare(query) is plan
        assert plan.phase_times == timers
        assert plan.build_stats.cpi_repairs == 1
        assert plan.build_stats.cpi_rebuilds == 0
        assert plan.build_stats.dirty_region_size == len(query.vertices())
        assert embeddings_of(inc, query) == [(0, 2), (1, 3)]

    def test_dirty_delta_changing_the_cpi_makes_a_new_plan(self):
        data, query = small_instance()
        inc = IncrementalMatcher(data)
        plan = inc.prepare(query)
        data.add_edge(0, 3)
        repaired = inc.prepare(query)
        assert repaired is not plan
        assert repaired.cpi is not plan.cpi
        assert repaired.root == plan.root
        assert repaired.build_stats.cpi_repairs == 1
        assert embeddings_of(inc, query) == [(0, 2), (0, 3), (1, 3)]

    def test_reselection_equals_select_root_after_every_delta(self):
        """Runs of one to three edge flips: after each run, the kept
        passing sets, updated from the run's touches, equal CandVerify
        run from scratch and pick the root a from-scratch selection
        picks.  The flips change some passing set, and on the
        skewed-label cases some only through a neighbor's degree (the
        two-hop MND case)."""
        changed = 0
        for index in range(4):
            case = generate_case(
                23, index, WorkloadSpec(scenarios=("skewed-labels", "dense"))
            )
            query = case.query
            dynamic = DynamicGraph.from_graph(case.data)
            state = ShortlistState()
            select_root(query, dynamic, state=state)
            rng = random.Random(f"reselect:{index}")
            for _ in range(15):
                version = dynamic.version
                for _ in range(rng.randint(1, 3)):
                    u, v = rng.sample(range(dynamic.num_vertices), 2)
                    dynamic.apply(
                        Delta.remove_edge(u, v) if dynamic.has_edge(u, v)
                        else Delta.add_edge(u, v)
                    )
                before = {w: set(kept) for w, kept in state.passing.items()}
                state.touch(dynamic, dynamic.touches_since(version))
                static = dynamic.to_static()
                assert select_root(query, dynamic, state=state) == select_root(query, static)
                for w, kept in state.passing.items():
                    fresh = root_selection._verified_candidates(query, static, w)
                    assert kept == set(fresh.passed)
                    changed += w in before and before[w] != kept
        assert changed

    def test_differential_catches_a_reselection_missing_two_hop_vertices(
        self, monkeypatch
    ):
        """``ae 12 0`` raises vertex 0's degree, so its neighbor 5's MND
        changes too.  If the shortlist recorded only the endpoints, not
        their neighbors, vertex 5 would keep its stale verdict in a
        passing set, and the differential reports the wrong root."""
        data = Graph(
            [1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 1, 0], [(0, 5), (5, 6), (5, 9)]
        )
        query = Graph([0, 0, 1, 1, 0], [(0, 1), (0, 3), (0, 4), (1, 2)])
        deltas = [Delta.add_vertex(0), Delta.add_edge(12, 0)]
        assert incremental_differential_check(data, query, deltas) == []
        touch = ShortlistState.touch
        no_rows = SimpleNamespace(adj=defaultdict(list))
        monkeypatch.setattr(
            ShortlistState, "touch",
            lambda self, data, touches: touch(self, no_rows, touches),
        )
        found = incremental_differential_check(data, query, deltas)
        assert {m.matcher for m in found} == {"incremental/reference", "incremental/kernel"}
        assert all("served root differs" in m.detail for m in found)

    def test_log_gap_and_renumbering_fall_back_to_full_selection(self, monkeypatch):
        """A dirty delta in the log re-judges only touched vertices; a
        log gap or a renumbering ``remove_vertex`` runs CandVerify on
        every shortlisted vertex's label bucket again."""
        full = []
        verified = root_selection._verified_candidates

        def spy(query, data, u):
            full.append(u)
            return verified(query, data, u)

        monkeypatch.setattr(root_selection, "_verified_candidates", spy)
        data = DynamicGraph(
            [0, 0, 1, 1, 2, 2], [(0, 2), (1, 3), (4, 5)], log_limit=2
        )
        query = Graph([0, 1], [(0, 1)])
        inc = IncrementalMatcher(data)
        inc.prepare(query)
        assert sorted(full) == [0, 1]
        data.add_edge(0, 3)
        inc.prepare(query)
        assert sorted(full) == [0, 1]                   # kept sets updated
        data.add_edge(1, 2)
        data.remove_edge(0, 3)
        data.remove_edge(1, 2)          # the log keeps only the last 2
        assert data.touches_since(1) is None
        inc.prepare(query)
        assert sorted(full) == [0, 0, 1, 1]             # the gap: full
        data.remove_vertex(0)           # vertex 5 is renumbered to 0
        plan = inc.prepare(query)
        assert sorted(full) == [0, 0, 0, 1, 1, 1]       # renumbered: full
        assert plan.build_stats.cpi_rebuilds == 2
        cold = CFLMatch(data.to_static())
        assert plan.root == cold.prepare(query).root
        assert embeddings_of(inc, query) == list(cold.search(query))

    def test_renumbering_removal_forces_rebuild(self):
        data, query = small_instance()
        inc = IncrementalMatcher(data)
        inc.prepare(query)
        data.remove_vertex(0)          # vertex 5 is renumbered to 0
        stats = inc.prepare(query).build_stats
        assert stats.cpi_rebuilds == 1
        cold = CFLMatch(data.to_static())
        assert embeddings_of(inc, query) == list(cold.search(query))

    def test_root_change_forces_rebuild(self):
        """The repair memo is keyed on the BFS tree: when a delta makes
        root selection pick another vertex, the plan is rebuilt."""
        data = DynamicGraph([0, 0, 1, 1], [(0, 2), (1, 2)])
        query = Graph([0, 1], [(0, 1)])
        inc = IncrementalMatcher(data)
        assert inc.prepare(query).root == 1     # |C(u1)| = 1 < |C(u0)| = 2
        data.add_edge(1, 3)                     # now a 2-2 tie, won by u0
        plan = inc.prepare(query)
        assert plan.root == 0
        assert plan.build_stats.cpi_rebuilds == 1
        assert plan.build_stats.cpi_repairs == 0
        assert embeddings_of(inc, query) == [(0, 2), (1, 2), (1, 3)]

    def test_mutation_log_gap_forces_rebuild(self):
        data = DynamicGraph(
            [0, 0, 1, 1, 2, 2], [(0, 2), (1, 3), (4, 5)], log_limit=2
        )
        query = Graph([0, 1], [(0, 1)])
        inc = IncrementalMatcher(data)
        inc.prepare(query)
        data.add_edge(0, 3)
        data.add_edge(1, 2)
        data.remove_edge(0, 3)          # log keeps only the last 2 touches
        assert data.touches_since(0) is None
        stats = inc.prepare(query).build_stats
        assert stats.cpi_rebuilds == 1
        assert stats.cpi_repairs == 0
        assert embeddings_of(inc, query) == [(0, 2), (1, 2), (1, 3)]

    def test_initial_build_counters_match_production_builder(self):
        """The traced sweep IS the builder when everything is dirty."""
        for index in range(4):
            case = generate_delta_case(31, index)
            dynamic = DynamicGraph.from_graph(case.data)
            inc = IncrementalMatcher(dynamic)
            traced = inc.prepare(case.query).build_stats
            cold = CFLMatch(dynamic.to_static())
            want = cold.prepare(case.query, use_cache=False).build_stats
            assert traced.to_dict() == want.to_dict()

    def test_registration_lifecycle(self):
        data, query = small_instance()
        inc = IncrementalMatcher(data)
        assert inc.registration_count() == 0
        first = inc.prepare(query)
        assert inc.registration_count() == 1
        assert inc.prepare(query) is first      # same version: cached
        assert inc.forget(query)
        assert not inc.forget(query)
        assert inc.registration_count() == 0

    def test_count_and_limit_delegate(self):
        data, query = small_instance()
        inc = IncrementalMatcher(data)
        data.add_edge(0, 3)
        assert inc.count(query) == 3
        assert len(list(inc.search(query, limit=2))) == 2
        report = inc.run(query, collect=True)
        assert report.embeddings == 3
        assert report.results == [(0, 2), (0, 3), (1, 3)]


# ----------------------------------------------------------------------
# Continuous queries: created / tombstone streams
# ----------------------------------------------------------------------
class TestContinuousQuery:
    def test_created_and_tombstone_streams(self):
        data, query = small_instance()
        watch = ContinuousQuery(IncrementalMatcher(data), query)
        assert watch.embeddings == ((0, 2), (1, 3))

        event = watch.apply(Delta.add_edge(0, 3))
        assert event.version == 1
        assert event.created == ((0, 3),)
        assert event.destroyed == ()
        assert event.total == 3

        event = watch.apply(Delta.remove_edge(1, 3))
        assert event.created == ()
        assert event.destroyed == ((1, 3),)
        assert event.total == 2
        assert watch.embeddings == ((0, 2), (0, 3))

    def test_label_disjoint_delta_yields_empty_event(self):
        data, query = small_instance()
        watch = ContinuousQuery(IncrementalMatcher(data), query)
        event = watch.apply(Delta.remove_edge(4, 5))
        assert event.created == () and event.destroyed == ()
        assert event.total == 2

    def test_feed_replays_stream_lazily(self):
        data, query = small_instance()
        watch = ContinuousQuery(IncrementalMatcher(data), query)
        deltas = [Delta.add_edge(0, 3), Delta.add_edge(1, 2),
                  Delta.remove_edge(0, 2)]
        events = list(watch.feed(deltas))
        assert [e.version for e in events] == [1, 2, 3]
        assert [e.delta for e in events] == deltas
        assert events[-1].destroyed == ((0, 2),)
        assert watch.embeddings == ((0, 3), (1, 2), (1, 3))

    def test_events_agree_with_brute_recompute(self):
        """On fuzz cases, each event's diff equals the set difference
        of cold result sets before/after the delta, sorted (case 61's
        created sets do not iterate in sorted order)."""
        for seed in (57, 61):
            case = generate_delta_case(seed, 1)
            dynamic = DynamicGraph.from_graph(case.data)
            watch = ContinuousQuery(IncrementalMatcher(dynamic), case.query)
            for delta in case.deltas:
                before = set(
                    CFLMatch(dynamic.to_static()).search(case.query)
                )
                event = watch.apply(delta)
                after = set(
                    CFLMatch(dynamic.to_static()).search(case.query)
                )
                assert list(event.created) == sorted(after - before)
                assert list(event.destroyed) == sorted(before - after)
                assert event.total == len(after)

    def test_limit_tracks_enumeration_prefix(self):
        data, query = small_instance()
        watch = ContinuousQuery(IncrementalMatcher(data), query, limit=1)
        assert watch.embeddings == ((0, 2),)
        # Killing the tracked embedding promotes the next one into view.
        event = watch.apply(Delta.remove_edge(0, 2))
        assert event.destroyed == ((0, 2),)
        assert event.created == ((1, 3),)
        assert event.total == 1
