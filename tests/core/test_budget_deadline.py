"""Budget and deadline edge cases: truncated runs return cleanly
flagged partial reports — never exceptions, never corrupt counters.

The work budget charges an expansion *before* recording it, so
``stats.nodes <= max_expansions`` holds at every truncation point,
including mid-leaf-enumeration where one NEC assignment charges several
expansions at once.
"""

import random
import time

import pytest

from repro.core import CFLMatch
from repro.core.stats import BudgetExhausted, SearchStats, WorkBudget, monotonic_now
from repro.graph import Graph, random_connected_graph
from repro.workloads.paper_graphs import figure1_example, figure3_example


class TestWorkBudget:
    def test_zero_budget_charges_nothing(self):
        budget = WorkBudget(0)
        with pytest.raises(BudgetExhausted):
            budget.charge()

    def test_multi_unit_charge(self):
        budget = WorkBudget(3)
        budget.charge(3)
        with pytest.raises(BudgetExhausted):
            budget.charge()


class TestBudgetTruncation:
    def test_budget_zero_returns_flagged_empty_report(self):
        ex = figure3_example()
        report = CFLMatch(ex.data).run(ex.query, limit=None, max_expansions=0)
        assert report.budget_exhausted
        assert report.status == "budget_exhausted"
        assert report.embeddings == 0
        assert report.stats.nodes == 0
        # build counters are untouched by the enumeration budget
        assert report.build_stats.cpi_candidates_final == 7

    def test_budget_hit_mid_leaf_enumeration(self):
        """Figure 1 at (20, 100) costs 3 core + 20 forest + 40 leaf
        expansions; a budget of 30 dies inside the leaf stage."""
        ex = figure1_example(20, 100)
        report = CFLMatch(ex.data).run(ex.query, limit=None, max_expansions=30)
        assert report.budget_exhausted
        assert not report.timed_out
        assert report.stats.nodes <= 30
        assert report.stats.leaf_expansions > 0
        assert 0 < report.embeddings < 20

    def test_budget_hit_mid_leaf_count_mode(self):
        ex = figure1_example(20, 100)
        report = CFLMatch(ex.data).run(
            ex.query, limit=None, max_expansions=30, count_only=True
        )
        assert report.budget_exhausted
        assert report.stats.nodes <= 30

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 5, 7, 8, 100])
    def test_nodes_never_exceed_budget(self, budget):
        """Sweep every truncation point of the 8-node Figure 3 search."""
        ex = figure3_example()
        report = CFLMatch(ex.data).run(ex.query, limit=None, max_expansions=budget)
        assert report.stats.nodes <= budget
        if budget >= 8:
            assert report.status == "ok"
            assert report.embeddings == 3
            assert report.stats.nodes == 8
        else:
            assert report.status == "budget_exhausted"

    def test_truncated_counters_stay_coherent(self):
        ex = figure1_example(20, 100)
        report = CFLMatch(ex.data).run(ex.query, limit=None, max_expansions=25)
        s = report.stats
        assert s.nodes == s.core_expansions + s.forest_expansions + s.leaf_expansions
        counters = report.counters()
        assert SearchStats.from_dict(counters).to_dict() == counters
        assert all(v >= 0 for v in counters.values())


class TestDeadlineTruncation:
    def test_deadline_during_cpi_build(self):
        """An already-expired deadline fires inside CPI construction;
        the report is flagged and carries partial build counters."""
        ex = figure1_example(20, 100)
        report = CFLMatch(ex.data).run(
            ex.query, limit=None, deadline=time.perf_counter() - 1.0
        )
        assert report.timed_out
        assert report.status == "timed_out"
        assert report.embeddings == 0
        assert report.cpi_size == 0
        assert set(report.phase_times) == {
            "decomposition", "cpi_build", "cpi_repair", "ordering",
            "enumeration", "segment_attach",
        }
        counters = report.counters()
        assert SearchStats.from_dict(counters).to_dict() == counters

    def test_deadline_during_enumeration(self):
        """A deadline that survives the build but expires immediately
        after truncates enumeration cleanly (deadlines are polled every
        1024 nodes / 256 embeddings, so the instance must be big enough
        for a poll to happen)."""
        ex = figure1_example(600, 50)
        matcher = CFLMatch(ex.data)
        plan = matcher.prepare(ex.query, use_cache=False)
        report = matcher.run(
            ex.query, limit=None, prepared=plan,
            deadline=time.perf_counter() - 1.0,
        )
        assert report.timed_out
        assert not report.budget_exhausted
        assert report.embeddings < 600

    def test_generous_deadline_is_a_no_op(self):
        ex = figure3_example()
        report = CFLMatch(ex.data).run(
            ex.query, limit=None, deadline=time.perf_counter() + 3600.0
        )
        assert report.status == "ok"
        assert report.embeddings == 3

    @pytest.mark.parametrize("engine", ["kernel", "reference"])
    def test_distant_deadline_on_the_clock_seam_returns_everything(self, engine):
        """A deadline taken from ``monotonic_now`` an hour ahead must
        never fire.  The core search expands over a thousand nodes, so
        the engine polls its clock several times: a poll that reads a
        different clock than the seam (``time.time()``, say) compares
        against the wrong epoch and truncates the answer."""
        square = Graph([0, 0, 0, 0], [(0, 1), (1, 2), (2, 3), (3, 0)])
        data = random_connected_graph(60, 120, 1, random.Random(7))
        matcher = CFLMatch(data, engine=engine)
        expected = list(matcher.search(square))
        stats = SearchStats()
        got = list(
            matcher.search(square, stats=stats, deadline=monotonic_now() + 3600.0)
        )
        assert stats.nodes > 3 * 1024  # the deadline was polled
        assert got == expected
