"""Failing-set backjumping in Core-Match, on both engines.

The contract under test (see ``CPIBacktracker`` and
``repro/core/kernel.py``):

* a crafted dead end whose cause excludes the vertex being varied skips
  that vertex's remaining candidates, with hand-counted ``nodes`` and
  ``backjumps`` that both engines reproduce;
* embeddings and their order are unchanged, also under ``limit`` and
  when the consumer closes the generator early;
* ``nodes``/``backtracks``/``backjumps`` agree between the engines and
  with the independent model of :mod:`repro.testing.failing_sets`,
  including on budget- and deadline-truncated runs;
* root partitions (``root_candidates``, ``parallel_count``)
  sum to the unsplit run's counters under both core strategies;
* a stage without a backward edge never jumps, and pruning never adds
  a node.
"""

from itertools import islice

import pytest

from repro.core import CFLMatch, SearchStats
from repro.core.cpi_builder import build_cpi
from repro.core.kernel import MODE_ROOT
from repro.core.parallel import parallel_count
from repro.core.stats import aggregate_stage_stats, monotonic_now
from repro.graph import Graph
from repro.testing.failing_sets import model_counters
from repro.testing.workloads import (
    CONNECTED_QUERY_SCENARIOS,
    WorkloadSpec,
    generate_case,
)

ENGINES = ("kernel", "reference")
STRATEGIES = ("paths", "hierarchical")

#: Dense 7-vertex cyclic queries: (seed, index) of the stream below is a
#: case with embeddings whose core search backjumps under both core
#: strategies and runs past the 1024-node deadline poll.
DENSE_SPEC = WorkloadSpec(
    scenarios=("dense",), data_vertices=(60, 60), query_vertices=(7, 7)
)
JUMPING_CASE = (3, 1)


def _jumping_case():
    return generate_case(*JUMPING_CASE, DENSE_SPEC)


def _core_run(data, query, root, order, engine):
    """Search with the whole query matched as a core (``mode="match"``)
    in ``order`` over the full CPI rooted at ``root``."""
    matcher = CFLMatch(data, mode="match", engine=engine)
    plan = matcher.prepare_from_cpi(
        query, build_cpi(query, data, root), core_order=order
    )
    stage_stats: dict = {}
    found = list(matcher.search(query, prepared=plan, stage_stats=stage_stats))
    return found, stage_stats["core"], plan


class TestCraftedJumps:
    def test_emptyset_jump_skips_an_unrelated_vertex(self):
        """Query A0-B1, A0-C2, A0-D3, B1-C2 in order 0, 1, 3, 2.

        Under root x1 and u1 -> b1, the only C-neighbor of x1 (c2) is not
        adjacent to b1, so u2 has no candidate: its failing set is
        anc(u2) = {0, 1, 2}.  It excludes u3, so u3's two remaining
        candidates (d2, d3) are skipped: one backjump, two nodes saved
        (16 -> 14).  u1 -> b2 then yields three embeddings and root x2
        one more."""
        # x1=0 x2=1 (A), b1=2 b2=8 (B), c1=3 c2=4 (C), d1=5 d2=6 d3=7 (D)
        data = Graph(
            [0, 0, 1, 2, 2, 3, 3, 3, 1],
            [(0, 2), (0, 4), (0, 5), (0, 6), (0, 7), (2, 3), (1, 3),
             (1, 2), (1, 5), (8, 4), (8, 0)],
        )
        query = Graph([0, 1, 2, 3], [(0, 1), (0, 2), (0, 3), (1, 2)])
        results = [_core_run(data, query, 0, [0, 1, 3, 2], e) for e in ENGINES]
        for found, core, plan in results:
            assert sorted(found) == [
                (0, 8, 4, 5), (0, 8, 4, 6), (0, 8, 4, 7), (1, 2, 3, 5),
            ]
            assert (core.nodes, core.backjumps) == (14, 1)
            assert model_counters(plan) == {"nodes": 14, "backjumps": 1}
            assert model_counters(plan, prune=False)["nodes"] == 16
        assert results[0][0] == results[1][0]
        assert results[0][1].backtracks == results[1][1].backtracks

    def test_conflict_jump_carries_the_occupant(self):
        """Query A0-B1, A0-C2, A0-C3, A0-D4, B1-C2 in order 0, 3, 1, 4, 2.

        With u3 -> c1, u1 -> b and u4 -> d1, u2's only candidate c1
        passes the edge check but is held by u3: the failing set is
        anc(u2) | anc(u3) = {0, 1, 2, 3}.  It excludes u4, so d2 is
        skipped (one backjump, 11 -> 10 nodes); u3 -> c2 then yields two
        embeddings."""
        # x=0 (A), b=1 (B), c1=2 c2=3 (C), d1=4 d2=5 (D)
        data = Graph(
            [0, 1, 2, 2, 3, 3],
            [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2)],
        )
        query = Graph(
            [0, 1, 2, 2, 3], [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)]
        )
        results = [_core_run(data, query, 0, [0, 3, 1, 4, 2], e) for e in ENGINES]
        for found, core, plan in results:
            assert found == [(0, 1, 2, 3, 4), (0, 1, 2, 3, 5)]
            assert (core.nodes, core.backjumps) == (10, 1)
            assert core.injectivity_conflicts == 1
            assert model_counters(plan) == {"nodes": 10, "backjumps": 1}
            assert model_counters(plan, prune=False)["nodes"] == 11

    def test_root_slot_with_backward_edge(self):
        """A slot whose tree parent comes later draws from its whole
        candidate set, which the kernel filters by its backward edges
        before it checks occupancy and the reference checks per
        candidate after it: both engines still agree with the model."""
        case = _jumping_case()
        root = CFLMatch(case.data, mode="match").prepare(case.query).root
        order = [5, 4, 3, 6, 2, 0, 1]
        assert order[0] == root
        runs = [_core_run(case.data, case.query, root, order, e) for e in ENGINES]
        stage = runs[0][2].kernel.core
        assert stage.modes[5] == MODE_ROOT and stage.backward[5]
        assert runs[0][0] == runs[1][0]
        for _, core, plan in runs:
            assert core.backjumps and core.injectivity_conflicts
            expected = model_counters(plan)
            assert (core.nodes, core.backjumps) == (
                expected["nodes"], expected["backjumps"],
            )
        assert runs[0][1].backtracks == runs[1][1].backtracks


class TestTreeStages:
    def test_tree_query_equals_the_unpruned_model(self):
        query = Graph([0, 1, 2, 1], [(0, 1), (1, 2), (1, 3)])
        data = Graph(
            [0, 1, 2, 1, 2, 0, 1],
            [(0, 1), (1, 2), (1, 3), (3, 4), (0, 3), (5, 6), (6, 2), (1, 4)],
        )
        for engine in ENGINES:
            matcher = CFLMatch(data, mode="match", engine=engine)
            plan = matcher.prepare(query)
            assert plan.kernel is None or plan.kernel.core.ancestors is None
            stage_stats: dict = {}
            matcher.count(query, prepared=plan, stage_stats=stage_stats)
            core = stage_stats["core"]
            assert core.backjumps == 0
            assert model_counters(plan, prune=False) == {
                "nodes": core.nodes, "backjumps": 0,
            }


class TestOrderAndTruncation:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_limit_and_close_prefixes(self, strategy):
        case = _jumping_case()
        full = {
            engine: list(
                CFLMatch(case.data, engine=engine, core_strategy=strategy).search(
                    case.query
                )
            )
            for engine in ENGINES
        }
        assert full["kernel"] == full["reference"]
        total = len(full["kernel"])
        for k in (1, 7, total // 2, total):
            for engine in ENGINES:
                matcher = CFLMatch(case.data, engine=engine, core_strategy=strategy)
                assert list(matcher.search(case.query, limit=k)) == full[engine][:k]
                search = matcher.search(case.query)
                assert list(islice(search, k)) == full[engine][:k]
                search.close()

    def test_budget_truncation_parity(self):
        case = _jumping_case()
        reference = CFLMatch(case.data, engine="reference")
        kernel = CFLMatch(case.data, engine="kernel")
        for max_expansions in (1, 40, 300, 1000):
            ref = reference.run(case.query, max_expansions=max_expansions)
            ker = kernel.run(case.query, max_expansions=max_expansions)
            assert ref.status == ker.status == "budget_exhausted"
            assert ref.embeddings == ker.embeddings
            assert ref.stats.nodes == ker.stats.nodes <= max_expansions
            assert ref.stats.backjumps == ker.stats.backjumps

    def test_deadline_truncation_parity(self):
        case = _jumping_case()
        runs = []
        for engine in ENGINES:
            matcher = CFLMatch(case.data, engine=engine)
            plan = matcher.prepare(case.query)
            assert matcher.run(case.query, prepared=plan).stats.nodes > 1024
            runs.append(
                matcher.run(
                    case.query, prepared=plan, deadline=monotonic_now() - 1.0,
                    count_only=True,
                )
            )
        ref, ker = runs
        assert ref.status == ker.status == "timed_out"
        assert ref.stats.nodes == ker.stats.nodes
        assert ref.stats.backjumps == ker.stats.backjumps
        assert ref.embeddings == ker.embeddings


def _counters(stats: SearchStats):
    return (
        stats.nodes, stats.backtracks, stats.backjumps,
        stats.injectivity_conflicts + stats.edge_check_failures,
    )


class TestRootPartition:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_root_candidates_sum_to_the_unsplit_run(self, engine, strategy):
        case = _jumping_case()
        matcher = CFLMatch(case.data, engine=engine, core_strategy=strategy)
        plan = matcher.prepare(case.query)
        whole = SearchStats()
        count = matcher.count(case.query, prepared=plan, stats=whole)
        assert whole.backjumps > 0
        parts = SearchStats()
        total = 0
        for root in plan.cpi.candidates[plan.root]:
            total += matcher.count(
                case.query, prepared=plan, root_candidates=[root], stats=parts
            )
        assert total == count
        assert _counters(parts) == _counters(whole)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_parallel_count_sums_to_the_unsplit_run(self, strategy):
        case = _jumping_case()
        stage_stats: dict = {}
        count = CFLMatch(case.data, core_strategy=strategy).count(
            case.query, stage_stats=stage_stats
        )
        whole = aggregate_stage_stats(stage_stats)
        workers = SearchStats()
        assert parallel_count(
            case.data, case.query, workers=2, stats=workers, core_strategy=strategy
        ) == count
        assert _counters(workers) == _counters(whole)


class TestFuzzSweep:
    @pytest.mark.parametrize("scenario", CONNECTED_QUERY_SCENARIOS)
    def test_engines_match_the_model_and_never_add_nodes(self, scenario):
        spec = WorkloadSpec(scenarios=(scenario,))
        for index in range(4):
            case = generate_case(16, index, spec)
            if not case.query.is_connected():
                continue
            plan = CFLMatch(case.data).prepare(case.query)
            pruned = model_counters(plan)
            assert pruned["nodes"] <= model_counters(plan, prune=False)["nodes"]
            for engine in ENGINES:
                stage_stats: dict = {}
                CFLMatch(case.data, engine=engine).count(
                    case.query, stage_stats=stage_stats
                )
                searched = {
                    "nodes": sum(
                        stage_stats[s].nodes for s in ("core", "forest")
                        if s in stage_stats
                    ),
                    "backjumps": sum(s.backjumps for s in stage_stats.values()),
                }
                assert searched == pruned, (scenario, index, engine)
