"""Kernel-engine suite: the compiled flat-array loop is a drop-in
replacement for the reference backtracker.

The contract under test (see ``repro/core/kernel.py``):

* identical embeddings in identical order on every fuzz scenario;
* bit-identical ``nodes``/``backtracks``/``embeddings`` counters, and an
  identical ``injectivity_conflicts + edge_check_failures`` sum, on
  complete runs (the split may differ — the intersection attributes
  used-AND-edge-failing candidates to ``edge_check_failures``; the sum
  may too once a backjump skips the rest of an eagerly charged row, and
  the pinned sweep cases below never backjump);
* identical truncation points under both work budgets and deadlines
  (``WorkBudget`` charging and the ``nodes & 1023`` deadline poll are
  aligned with the reference);
* the root-restriction, plan-cache and parallel wire paths all reuse or
  recompile the kernel correctly.
"""

import pytest

from repro.core import CFLMatch
from repro.core.core_match import CPIBacktracker
from repro.core.cpi import EMPTY_CANDIDATES
from repro.core.kernel import (
    MODE_CROSS,
    MODE_ROOT,
    MODE_TREE,
    compile_kernel_plan,
)
from repro.core.matcher import ENGINES
from repro.core.parallel import parallel_count
from repro.core.shm import PlanSegment, attach_plan_segment
from repro.core.stats import SearchStats, monotonic_now
from repro.testing.workloads import (
    CONNECTED_QUERY_SCENARIOS,
    WorkloadSpec,
    generate_case,
)
from repro.workloads.paper_graphs import figure1_example, figure3_example

#: Dense enough that core slots carry backward non-tree edges (the
#: intersection path) and the search exceeds the 1024-node deadline poll.
DENSE_SPEC = WorkloadSpec(
    scenarios=("dense",), data_vertices=(60, 60), query_vertices=(7, 7)
)


def engines_for(case):
    return (
        CFLMatch(case.data, engine="reference"),
        CFLMatch(case.data, engine="kernel"),
    )


class TestEngineKnob:
    def test_engines_constant(self):
        assert ENGINES == ("kernel", "reference")

    def test_invalid_engine_rejected(self):
        ex = figure3_example()
        with pytest.raises(ValueError, match="engine"):
            CFLMatch(ex.data, engine="turbo")

    def test_default_engine_is_kernel(self):
        ex = figure3_example()
        matcher = CFLMatch(ex.data)
        assert matcher.engine == "kernel"
        assert matcher.prepare(ex.query).kernel is not None

    def test_reference_engine_compiles_no_kernel(self):
        ex = figure3_example()
        plan = CFLMatch(ex.data, engine="reference").prepare(ex.query)
        assert plan.kernel is None


class TestDifferentialSweep:
    @pytest.mark.parametrize("scenario", CONNECTED_QUERY_SCENARIOS)
    def test_embeddings_and_counters_match(self, scenario):
        spec = WorkloadSpec(scenarios=(scenario,))
        for seed in range(6):
            case = generate_case(seed, 0, spec)
            reference, kernel = engines_for(case)
            ref_stats, ker_stats = SearchStats(), SearchStats()
            ref_embeddings = list(reference.search(case.query, stats=ref_stats))
            ker_embeddings = list(kernel.search(case.query, stats=ker_stats))
            # Same embeddings in the same order (not just the same set).
            assert ref_embeddings == ker_embeddings, case.describe()
            assert ref_stats.nodes == ker_stats.nodes, case.describe()
            assert ref_stats.backtracks == ker_stats.backtracks, case.describe()
            assert ref_stats.embeddings == ker_stats.embeddings, case.describe()
            # Each rejected candidate is counted exactly once by both
            # engines; only the inj/edge split may differ.
            assert (
                ref_stats.injectivity_conflicts + ref_stats.edge_check_failures
                == ker_stats.injectivity_conflicts + ker_stats.edge_check_failures
            ), case.describe()

    @pytest.mark.parametrize("scenario", CONNECTED_QUERY_SCENARIOS)
    def test_counts_match(self, scenario):
        spec = WorkloadSpec(scenarios=(scenario,))
        for seed in range(3):
            case = generate_case(seed, 0, spec)
            reference, kernel = engines_for(case)
            assert reference.count(case.query) == kernel.count(case.query)

    def test_limit_truncation_same_prefix(self):
        case = generate_case(0, 0, DENSE_SPEC)
        reference, kernel = engines_for(case)
        for limit in (1, 7, 100):
            assert list(reference.search(case.query, limit=limit)) == list(
                kernel.search(case.query, limit=limit)
            )


class TestPinnedPaperCounters:
    """Both engines reproduce the hand-checked Fig. 1 / Fig. 3 counters
    exactly — including the rejection counters (on these workloads no
    candidate is simultaneously occupied and edge-failing)."""

    def test_figure3_exact(self):
        ex = figure3_example()
        reports = {
            engine: CFLMatch(ex.data, engine=engine).run(ex.query)
            for engine in ENGINES
        }
        for engine, report in reports.items():
            assert report.embeddings == 3, engine
            assert report.stats.nodes == 8, engine
            assert report.stats.backtracks == 3, engine
        ref, ker = reports["reference"].stats, reports["kernel"].stats
        assert ref.to_dict() == ker.to_dict()

    @pytest.mark.parametrize("paths,fan", [(20, 100), (7, 30)])
    def test_figure1_exact(self, paths, fan):
        ex = figure1_example(paths, fan)
        reports = {
            engine: CFLMatch(ex.data, engine=engine).run(ex.query)
            for engine in ENGINES
        }
        for engine, report in reports.items():
            assert report.embeddings == paths, engine
            assert report.stats.nodes == 3 * paths + 3, engine
            assert report.stats.backtracks == 2, engine
        ref, ker = reports["reference"].stats, reports["kernel"].stats
        assert ref.to_dict() == ker.to_dict()


class TestTruncationParity:
    def test_budget_truncation(self):
        case = generate_case(0, 0, DENSE_SPEC)
        reference, kernel = engines_for(case)
        for max_expansions in (1, 17, 256, 4096):
            ref = reference.run(case.query, max_expansions=max_expansions)
            ker = kernel.run(case.query, max_expansions=max_expansions)
            assert ref.status == ker.status == "budget_exhausted"
            assert ref.embeddings == ker.embeddings
            assert ref.stats.nodes == ker.stats.nodes <= max_expansions

    def test_deadline_truncation(self):
        # Prepare without a deadline, then run against one already in the
        # past: both engines deterministically stop at the first poll
        # (every 1024 nodes / 256 emitted embeddings), so the truncated
        # counters must agree exactly.
        case = generate_case(0, 0, DENSE_SPEC)
        reference, kernel = engines_for(case)
        ref_plan = reference.prepare(case.query)
        ker_plan = kernel.prepare(case.query)
        assert reference.run(case.query, prepared=ref_plan).stats.nodes > 1024
        past = monotonic_now() - 1.0
        ref = reference.run(
            case.query, prepared=ref_plan, deadline=past, count_only=True
        )
        ker = kernel.run(
            case.query, prepared=ker_plan, deadline=past, count_only=True
        )
        assert ref.status == ker.status == "timed_out"
        assert ref.stats.nodes == ker.stats.nodes
        assert ref.embeddings == ker.embeddings


class TestRootRestriction:
    def test_restricted_search_parity(self):
        case = generate_case(1, 0, DENSE_SPEC)
        reference, kernel = engines_for(case)
        ref_plan = reference.prepare(case.query)
        ker_plan = kernel.prepare(case.query)
        roots = ref_plan.cpi.candidates[ref_plan.root]
        assert roots
        for subset in (roots[:1], roots[::2], roots):
            ref_stats, ker_stats = SearchStats(), SearchStats()
            ref = list(
                reference.search(
                    case.query, prepared=ref_plan,
                    root_candidates=list(subset), stats=ref_stats,
                )
            )
            ker = list(
                kernel.search(
                    case.query, prepared=ker_plan,
                    root_candidates=list(subset), stats=ker_stats,
                )
            )
            assert ref == ker
            assert ref_stats.nodes == ker_stats.nodes

    def test_restriction_partitions_results(self):
        # Per-root kernel restrictions cover the full result set exactly
        # once — the invariant the parallel engine relies on.
        case = generate_case(2, 0, DENSE_SPEC)
        kernel = CFLMatch(case.data, engine="kernel")
        plan = kernel.prepare(case.query)
        full = list(kernel.search(case.query, prepared=plan))
        pieces = []
        for root in plan.cpi.candidates[plan.root]:
            pieces.extend(
                kernel.search(case.query, prepared=plan, root_candidates=[root])
            )
        assert sorted(pieces) == sorted(full)


class TestCompiledPlanStructure:
    def test_stage_modes_and_rank_keyed_csr(self):
        case = generate_case(0, 0, DENSE_SPEC)
        matcher = CFLMatch(case.data, engine="kernel")
        plan = matcher.prepare(case.query)
        compiled = plan.kernel
        core = compiled.core
        assert core.length == len(plan.core_slots)
        assert core.modes[0] == MODE_ROOT
        # The root slot's base arrays are the sorted candidate list with
        # identity ranks.
        assert list(core.base_v[0]) == plan.cpi.candidates[plan.root]
        assert list(core.base_r[0]) == list(range(len(core.base_v[0])))
        for depth in range(1, core.length):
            assert core.modes[depth] == MODE_TREE
            slot = plan.core_slots[depth]
            parent = slot.tree_parent
            indptr = core.indptrs[depth]
            flat_v = core.flat_v[depth]
            parent_candidates = plan.cpi.candidates[parent]
            assert len(indptr) == len(parent_candidates) + 1
            # CSR rows keyed by the parent candidate's rank reproduce the
            # dict-of-lists adjacency exactly.
            for rank, parent_image in enumerate(parent_candidates):
                row = list(flat_v[indptr[rank]:indptr[rank + 1]])
                assert row == list(
                    plan.cpi.adjacency[slot.u].get(parent_image, ())
                )
        # Forest slots anchored on core vertices go through cross rows.
        for depth in range(compiled.forest.length):
            assert compiled.forest.modes[depth] in (
                MODE_ROOT, MODE_TREE, MODE_CROSS,
            )

    def test_kernel_plan_borrows_the_graph_rows(self):
        """The kernel filters against the data graph's own neighbor
        sets: a compiled plan, from the matcher or standalone, holds
        ``data._adj_sets`` itself."""
        case = generate_case(0, 0, DENSE_SPEC)
        plan = CFLMatch(case.data, engine="kernel").prepare(case.query)
        standalone = compile_kernel_plan(
            plan.cpi, plan.core_slots, plan.forest_slots
        )
        for kernel in (plan.kernel, standalone):
            assert kernel.adj_sets is case.data._adj_sets

    def test_plan_cache_reuses_compiled_kernel(self):
        case = generate_case(0, 0, DENSE_SPEC)
        matcher = CFLMatch(case.data, engine="kernel")
        first = matcher.prepare(case.query)
        second = matcher.prepare(case.query)
        assert second is first
        assert second.kernel is first.kernel
        assert matcher.prepare_count == 1

    def test_attached_plan_compiles_for_kernel_matcher(self):
        """A reference-engine plan segment carries no kernel stages; a
        kernel matcher attaching it compiles them from the shipped CPI
        (``prepare_from_cpi`` without ``kernel_plan``)."""
        case = generate_case(0, 0, DENSE_SPEC)
        sender = CFLMatch(case.data, engine="reference")
        sent = sender.prepare(case.query)
        assert sent.kernel is None
        segment = PlanSegment.create(sent)
        try:
            receiver = CFLMatch(case.data, engine="kernel")
            plan, attached = attach_plan_segment(receiver, segment.name)
            assert plan.kernel is not None
            assert receiver.count(case.query, prepared=plan) == sender.count(
                case.query
            )
            attached.close()
        finally:
            segment.unlink()
            segment.close()


class TestParallelEngineParity:
    def test_parallel_count_each_engine(self):
        case = generate_case(0, 0, DENSE_SPEC)
        expected = CFLMatch(case.data, engine="reference").count(case.query)
        for engine in ENGINES:
            assert (
                parallel_count(case.data, case.query, workers=2, engine=engine)
                == expected
            )


class TestEmptyCandidateSentinel:
    """Regression for the unified empty-candidate sentinel: every "no
    adjacency row" path returns the one shared immutable constant."""

    def test_sentinel_is_shared_and_immutable(self):
        assert EMPTY_CANDIDATES == ()
        assert isinstance(EMPTY_CANDIDATES, tuple)

    def test_cpi_child_candidates_default(self):
        ex = figure3_example()
        plan = CFLMatch(ex.data).prepare(ex.query)
        assert plan.cpi.child_candidates(1, 10_000) is EMPTY_CANDIDATES

    def test_backtracker_slot_candidates_default(self):
        ex = figure3_example()
        plan = CFLMatch(ex.data).prepare(ex.query)
        slot = next(s for s in plan.core_slots if s.tree_parent is not None)
        mapping = [-1] * ex.query.num_vertices
        mapping[slot.tree_parent] = 10_000  # image with no adjacency row
        row = CPIBacktracker._slot_candidates(
            slot, mapping, plan.cpi.candidates, plan.cpi.adjacency
        )
        assert row is EMPTY_CANDIDATES
