"""Unit tests for Leaf-Match (Section 4.4)."""

from math import factorial

import pytest

from repro.core import (
    CFLMatch,
    build_cpi,
    build_leaf_plan,
    cfl_decompose,
    count_leaf_matches,
    enumerate_leaf_matches,
)
from repro.core import leaf_match
from repro.core.core_match import CPIBacktracker
from repro.core.leaf_match import BLOCK_NODE_CAP, build_leaf_block
from repro.core.stats import BudgetExhausted, SearchStats, WorkBudget
from repro.graph import Graph
from repro.workloads.paper_graphs import figure4_query


def _prepare_figure4_style(num_per_label=2):
    """Query: core edge (0,1) is replaced by a simple star — center 0 with
    leaves of two labels; data gives each leaf group candidates."""
    # query: center (label 0), two leaves label 1, one leaf label 2
    query = Graph([0, 1, 1, 2], [(0, 1), (0, 2), (0, 3)])
    # data: center v0, three label-1 neighbors, two label-2 neighbors
    data = Graph(
        [0, 1, 1, 1, 2, 2],
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)],
    )
    return query, data


class TestLeafPlan:
    def test_figure4_label_classes(self):
        """Section 4.4: S_G = {u8, u9}, S_F = {u7, u10}."""
        query, ids = figure4_query()
        d = cfl_decompose(query)
        cpi = build_cpi(query, query, 0)  # data graph irrelevant for the plan
        plan = build_leaf_plan(cpi, d.leaves)
        classes = [
            sorted(u for nec in cls for u in nec.members) for cls in plan.classes
        ]
        assert sorted(map(tuple, classes)) == sorted(
            [
                (ids["u7"], ids["u10"]),
                (ids["u8"], ids["u9"]),
            ]
        )

    def test_same_parent_same_label_merge_into_nec(self):
        query = Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        cpi = build_cpi(query, query, 0)
        plan = build_leaf_plan(cpi, [1, 2, 3])
        assert len(plan.classes) == 1
        necs = plan.classes[0]
        assert len(necs) == 1
        assert necs[0].members == (1, 2, 3)

    def test_different_parents_stay_separate_necs(self):
        # path 1-0-2 with two label-1 leaves on different parents
        query = Graph([0, 0, 1, 1], [(0, 1), (0, 2), (1, 3)])
        cpi = build_cpi(query, query, 0)
        plan = build_leaf_plan(cpi, [2, 3])
        assert len(plan.classes) == 1
        assert len(plan.classes[0]) == 2

    def test_empty_plan(self):
        query = Graph([0], [])
        cpi = build_cpi(query, query, 0)
        plan = build_leaf_plan(cpi, [])
        assert plan.classes == ()


class TestEnumerateAndCount:
    def _run(self, query, data):
        d = cfl_decompose(query, tree_root=0)
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, d.leaves)
        mapping = [-1] * query.num_vertices
        used = bytearray(data.num_vertices)
        mapping[0] = 0
        used[0] = 1
        enumerated = []
        for _ in enumerate_leaf_matches(cpi, plan, mapping, used):
            enumerated.append(tuple(mapping))
        count = count_leaf_matches(cpi, plan, mapping, used)
        return enumerated, count

    def test_count_equals_enumeration(self):
        query, data = _prepare_figure4_style()
        enumerated, count = self._run(query, data)
        assert len(enumerated) == len(set(enumerated)) == count
        # 3 choices x 2 choices for the label-1 NEC pair, 2 for label-2 leaf
        assert count == 3 * 2 * 2

    def test_nec_permutations_expanded(self):
        query = Graph([0, 1, 1], [(0, 1), (0, 2)])
        data = Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        enumerated, count = self._run(query, data)
        assert count == 6  # P(3, 2)
        images = {(m[1], m[2]) for m in enumerated}
        assert len(images) == 6
        assert all(a != b for a, b in images)

    def test_injectivity_within_label_class_across_necs(self):
        # two label-1 leaves under different parents sharing one candidate
        query = Graph([0, 0, 1, 1], [(0, 1), (0, 2), (1, 3)])
        data = Graph([0, 0, 1], [(0, 1), (0, 2), (1, 2)])
        d = cfl_decompose(query, tree_root=0)
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, d.leaves)
        mapping = [0, 1, -1, -1]
        used = bytearray(data.num_vertices)
        used[0] = used[1] = 1
        results = [tuple(mapping) for _ in enumerate_leaf_matches(cpi, plan, mapping, used)]
        # both leaves can only map to v2 -> conflict -> no assignment
        assert results == []
        assert count_leaf_matches(cpi, plan, mapping, used) == 0

    def test_used_vertices_excluded(self):
        query, data = _prepare_figure4_style()
        d = cfl_decompose(query, tree_root=0)
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, d.leaves)
        mapping = [0, -1, -1, -1]
        used = bytearray(data.num_vertices)
        used[0] = 1
        used[1] = 1  # one label-1 candidate already consumed
        count = count_leaf_matches(cpi, plan, mapping, used)
        assert count == 2 * 1 * 2  # P(2,2) x 2

    def test_cap_stops_early(self):
        query = Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        data = Graph([0] + [1] * 7, [(0, i) for i in range(1, 8)])
        d = cfl_decompose(query, tree_root=0)
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, d.leaves)
        mapping = [0, -1, -1, -1]
        used = bytearray(data.num_vertices)
        used[0] = 1
        full = count_leaf_matches(cpi, plan, mapping, used)
        assert full == 7 * 6 * 5
        capped = count_leaf_matches(cpi, plan, mapping, used, cap=10)
        assert 10 <= capped <= full

    def test_nec_factorial_in_count(self):
        query = Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        data = Graph([0, 1, 1, 1], [(0, 1), (0, 2), (0, 3)])
        d = cfl_decompose(query, tree_root=0)
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, d.leaves)
        mapping = [0, -1, -1, -1]
        used = bytearray(4)
        used[0] = 1
        assert count_leaf_matches(cpi, plan, mapping, used) == factorial(3)

    def test_infeasible_nec_fails_fast(self):
        query = Graph([0, 1, 1], [(0, 1), (0, 2)])
        data = Graph([0, 1], [(0, 1)])  # only one label-1 candidate for 2 leaves
        d = cfl_decompose(query, tree_root=0)
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, d.leaves)
        mapping = [0, -1, -1]
        used = bytearray(2)
        used[0] = 1
        assert list(enumerate_leaf_matches(cpi, plan, mapping, used)) == []
        assert count_leaf_matches(cpi, plan, mapping, used) == 0

    def test_state_restored_after_enumeration(self):
        query, data = _prepare_figure4_style()
        d = cfl_decompose(query, tree_root=0)
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, d.leaves)
        mapping = [0, -1, -1, -1]
        used = bytearray(data.num_vertices)
        used[0] = 1
        for _ in enumerate_leaf_matches(cpi, plan, mapping, used):
            pass
        assert mapping == [0, -1, -1, -1]
        assert used[1:] == bytearray(data.num_vertices - 1)


# ----------------------------------------------------------------------
# Block emission (the kernel engine's Leaf-Match) against the oracle
# ----------------------------------------------------------------------
#: Query of the "nested" and "empty-tail" cases: root 0 with internal
#: children 1 and 2 (all label 0).  Label class 1 has three one-leaf
#: NECs (3 under 0, 4 under 1, 5 under 2) whose candidates overlap, so
#: injectivity leaves dead ends; label class 2 is the two-member NEC
#: {6, 7} under the root.
_BLOCK_QUERY_LABELS = [0, 0, 0, 1, 1, 1, 2, 2]
_BLOCK_QUERY_EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5), (0, 6), (0, 7)]
#: Data: a0=0 adjacent to a1=1 and a2=2 (label 0); label-1 vertices
#: p=3, q=4, r=5 with a0~{p,q}, a1~{p,r}, a2~{q,r}; label-2 vertices
#: 6-8 around a0.
_BLOCK_DATA_LABELS = [0, 0, 0, 1, 1, 1, 2, 2, 2]
_BLOCK_DATA_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (2, 5),
    (0, 6), (0, 7), (0, 8),
]

BLOCK_CASES = ("nested", "empty-tail", "shortcircuit", "wide", "wide-flat")


def _block_case(name):
    """``(query, data)`` of a crafted block case."""
    if name.startswith("wide"):
        # Two hubs (label 0), each adjacent to three label-1 and eight
        # label-2 vertices.  A block's size is the product of its class
        # sizes but its build bound only their sum, so a ``limit`` can
        # stop a search inside a block it built.  "wide": the two-member
        # label-1 NEC {1, 2} and leaf 3 (6 x 8 per block); "wide-flat":
        # one leaf per label (3 x 8).
        if name == "wide":
            query = Graph([0, 1, 1, 2], [(0, 1), (0, 2), (0, 3)])
        else:
            query = Graph([0, 1, 2], [(0, 1), (0, 2)])
        data = Graph(
            [0, 0] + [1] * 3 + [2] * 8,
            [(hub, v) for hub in (0, 1) for v in range(2, 13)],
        )
        return query, data
    if name == "shortcircuit":
        # Data: a0=0, a1=1, a2=2 (label 0), s=3, t=4, u=5, w=6 (label 2)
        # and p=7 (label 1).  Query vertex 1 (label 2, with a label-1
        # leaf) can only map to s.  The label-2 NEC {4, 5} hangs off
        # query vertex 2: with 2 -> a1, whose label-2 neighbors are
        # {s, t}, one candidate is left for two leaves; 2 -> a2 ({u, w})
        # fills it.
        query = Graph([0, 2, 0, 1, 2, 2], [(0, 1), (0, 2), (1, 3), (2, 4), (2, 5)])
        data = Graph(
            [0, 0, 0, 2, 2, 2, 2, 1],
            [(0, 1), (0, 2), (0, 3), (1, 3), (1, 4), (2, 5), (2, 6), (3, 7)],
        )
        return query, data
    q_labels, q_edges = list(_BLOCK_QUERY_LABELS), list(_BLOCK_QUERY_EDGES)
    d_labels, d_edges = list(_BLOCK_DATA_LABELS), list(_BLOCK_DATA_EDGES)
    if name == "nested":
        # a third class: one label-3 leaf, one candidate per parent image
        q_labels.append(3)
        q_edges.append((1, 8))
        d_labels += [3, 3]
        d_edges += [(1, 9), (2, 10)]
    else:
        # class 3: NEC {8, 9} under 0 and leaf 10 under 1 share the same
        # two candidates, so the class has dead ends and no assignment
        q_labels += [3, 3, 3]
        q_edges += [(0, 8), (0, 9), (1, 10)]
        d_labels += [3, 3]
        d_edges += [(v, w) for v in (0, 1, 2) for w in (9, 10)]
    return Graph(q_labels, q_edges), Graph(d_labels, d_edges)


def _leaf_states(query, data):
    """The matcher's plan and every core+forest mapping it reaches, as
    ``(cpi, leaf_plan, mapping, used)`` at the start of Leaf-Match."""
    plan = CFLMatch(data, engine="reference").prepare(query)
    core = CPIBacktracker(plan.cpi, plan.core_slots, SearchStats())
    forest = CPIBacktracker(plan.cpi, plan.forest_slots, SearchStats())
    mapping = [-1] * query.num_vertices
    used = bytearray(data.num_vertices)
    for _ in core.extend(mapping, used):
        for _ in forest.extend(mapping, used):
            yield plan.cpi, plan.leaf_plan, mapping, used


def _observe(engine, query, data, limit=None, close_after=None,
             max_expansions=None, split=True):
    """Embeddings, truncation flag, counters and budget left of a search."""
    stats = SearchStats()
    stage_stats = {} if split else None
    budget = WorkBudget(max_expansions) if max_expansions is not None else None
    search = CFLMatch(data, engine=engine).search(
        query, limit=limit, stats=stats, stage_stats=stage_stats, budget=budget
    )
    found = []
    exhausted = False
    try:
        for embedding in search:
            found.append(embedding)
            if len(found) == close_after:
                break
    except BudgetExhausted:
        exhausted = True
    search.close()
    stages = (
        {stage: part.to_dict() for stage, part in stage_stats.items()}
        if split else None
    )
    remaining = budget.remaining if budget is not None else None
    return found, exhausted, stats.to_dict(), stages, remaining


class TestLeafBlock:
    def test_block_cases_have_their_shape(self):
        query, data = _block_case("nested")
        states = list(_leaf_states(query, data))
        plan = states[0][1]
        assert [[nec.members for nec in cls] for cls in plan.classes] == [
            [(3,), (4,), (5,)], [(6, 7)], [(8,)],
        ]
        assert plan.flat == ()
        blocks = [build_leaf_block(*state, BLOCK_NODE_CAP) for state in _leaf_states(query, data)]
        assert len(blocks) == 2
        # class 1 has a dead end: its traversal expands nodes after its
        # last assignment completes
        assert blocks[0].totals[0] > blocks[0].cum[0][-1]
        assert [len(rows) for rows in blocks[0].rows] == [2, 6, 1]
        query, data = _block_case("empty-tail")
        blocks = [build_leaf_block(*state, BLOCK_NODE_CAP) for state in _leaf_states(query, data)]
        assert [len(rows) for rows in blocks[0].rows] == [2, 6, 0]
        assert blocks[0].size == 0 and blocks[0].nodes > 0
        query, data = _block_case("shortcircuit")
        blocks = [build_leaf_block(*state, BLOCK_NODE_CAP) for state in _leaf_states(query, data)]
        assert None in blocks and any(block is not None for block in blocks)

    def test_flat_plan(self):
        _, data = _prepare_figure4_style()
        query = Graph([0, 1, 2], [(0, 1), (0, 2)])
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, cfl_decompose(query, tree_root=0).leaves)
        assert plan.flat == ((0, 1), (0, 2))
        mapping = [0, -1, -1]
        used = bytearray(data.num_vertices)
        used[0] = 1
        block = build_leaf_block(cpi, plan, mapping, used, BLOCK_NODE_CAP)
        assert block.rows == [[1, 2, 3], [4, 5]]
        assert list(block.stream(tuple(mapping), plan.getter)) == [
            (0, v, w) for v in (1, 2, 3) for w in (4, 5)
        ]
        assert [block.nodes_through(k) for k in range(1, 7)] == [2, 3, 5, 6, 8, 9]
        assert block.nodes == 3 + 3 * 2

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_block_replays_the_oracle(self, name):
        """Same embeddings in order, same ``nodes`` at every yield and at
        the end, and ``None`` exactly where the oracle short-circuits."""
        query, data = _block_case(name)
        for cpi, plan, mapping, used in _leaf_states(query, data):
            before = (list(mapping), bytes(used))
            stats = SearchStats()
            seen = [
                (tuple(mapping), stats.nodes)
                for _ in enumerate_leaf_matches(cpi, plan, mapping, used, stats)
            ]
            block = build_leaf_block(cpi, plan, mapping, used, BLOCK_NODE_CAP)
            # the builder leaves the search state as it found it
            assert (list(mapping), bytes(used)) == before
            if stats.leaf_shortcircuits:
                assert block is None
                continue
            assert block.size == len(seen)
            assert block.nodes == stats.nodes
            if block.size:
                emitted = list(block.stream(tuple(mapping), plan.getter))
                assert emitted == [embedding for embedding, _ in seen]
            assert [
                block.nodes_through(k) for k in range(1, block.size + 1)
            ] == [nodes for _, nodes in seen]

    @pytest.mark.parametrize("name", BLOCK_CASES)
    @pytest.mark.parametrize("split", [True, False])
    def test_search_matches_reference(self, name, split):
        query, data = _block_case(name)
        full = _observe("reference", query, data, split=split)
        assert _observe("kernel", query, data, split=split) == full
        total = len(full[0])
        assert (total == 0) == (name == "empty-tail")
        if name == "shortcircuit":
            leaf = full[3]["leaf"] if split else full[2]
            assert leaf["leaf_shortcircuits"] == 1
        for k in range(1, total + 2):
            for kwargs in ({"limit": k}, {"close_after": k}):
                expected = _observe("reference", query, data, split=split, **kwargs)
                assert _observe("kernel", query, data, split=split, **kwargs) == expected

    @pytest.mark.parametrize("name", BLOCK_CASES)
    def test_budget_parity(self, name):
        """Every ``max_expansions`` up to past the full search's nodes —
        so the budget runs out inside blocks, on their boundaries and
        not at all — truncates both engines at the same point."""
        query, data = _block_case(name)
        nodes = _observe("reference", query, data, split=False)[2]["nodes"]
        assert nodes > 0
        for budget in range(nodes + 2):
            expected = _observe("reference", query, data, max_expansions=budget)
            assert _observe("kernel", query, data, max_expansions=budget) == expected
            reports = [
                CFLMatch(data, engine=engine).run(
                    query, collect=True, max_expansions=budget
                )
                for engine in ("reference", "kernel")
            ]
            assert reports[0].results == reports[1].results
            assert reports[0].counters() == reports[1].counters()
            assert reports[0].stage_nodes == reports[1].stage_nodes
            assert reports[0].budget_exhausted == reports[1].budget_exhausted
        # a budget that covers every block, with a limit or a close
        # inside a block: the unspent part of the block is refunded
        for k in (1, 5, 13, 30):
            for kwargs in ({"limit": k}, {"close_after": k}):
                expected = _observe(
                    "reference", query, data, max_expansions=nodes + 5, **kwargs
                )
                assert _observe(
                    "kernel", query, data, max_expansions=nodes + 5, **kwargs
                ) == expected


def _star_case(members, neighbours):
    """A center (label 0) with a ``members``-leaf label-1 NEC over a hub
    with ``neighbours`` label-1 neighbours."""
    query = Graph([0] + [1] * members, [(0, u) for u in range(1, members + 1)])
    data = Graph([0] + [1] * neighbours, [(0, v) for v in range(1, neighbours + 1)])
    return query, data


class TestBlockAllowance:
    """A block is built only when its bound fits the allowance, so
    ``limit``, ``max_expansions`` and :data:`BLOCK_NODE_CAP` bound what
    Leaf-Match holds in memory and expands up front."""

    def test_bound_decides_before_building(self):
        _, data = _prepare_figure4_style()
        query = Graph([0, 1, 2], [(0, 1), (0, 2)])
        cpi = build_cpi(query, data, 0)
        plan = build_leaf_plan(cpi, cfl_decompose(query, tree_root=0).leaves)
        mapping = [0, -1, -1]
        used = bytearray(data.num_vertices)
        used[0] = 1
        # flat: 3 + 2 candidates
        assert build_leaf_block(cpi, plan, mapping, used, 4) is None
        assert build_leaf_block(cpi, plan, mapping, used, 5).size == 6
        # one NEC of 4 leaves over 5 candidates: 4 * P(5, 4) = 480
        states = _leaf_states(*_star_case(4, 5))
        cpi, plan, mapping, used = next(states)
        assert build_leaf_block(cpi, plan, mapping, used, 479) is None
        assert build_leaf_block(cpi, plan, mapping, used, 480).size == 120

    def test_large_class_is_never_materialized(self, monkeypatch):
        """``limit=1`` and a small ``max_expansions`` stream a class
        below the cap (4 leaves over 8 candidates: 1,680 assignments)
        through the oracle; so does any consumer of a class over the
        cap (over 60 candidates: 11.7M), as the reference engine does."""
        assert 4 * 8 * 7 * 6 * 5 <= BLOCK_NODE_CAP < 4 * 60 * 59 * 58 * 57

        def refuse(*args):
            raise AssertionError("the class was materialized")

        monkeypatch.setattr(leaf_match, "_class_assignments", refuse)
        for neighbours, kwargs in (
            (8, {"limit": 1}),
            (8, {"max_expansions": 10}),
            (60, {"close_after": 3}),
        ):
            query, data = _star_case(4, neighbours)
            expected = _observe("reference", query, data, **kwargs)
            assert _observe("kernel", query, data, **kwargs) == expected
        query, data = _star_case(4, 8)
        reports = [
            CFLMatch(data, engine=engine).run(query, collect=True, max_expansions=10)
            for engine in ("reference", "kernel")
        ]
        assert reports[0].results == reports[1].results
        assert reports[0].counters() == reports[1].counters()
        assert reports[1].budget_exhausted


# ----------------------------------------------------------------------
# Closed-form counting (the kernel engine's count) against the loop
# ----------------------------------------------------------------------
def _two_parent_case(overlap):
    """Root 0 and its child 1 (label 0); the label-1 class holds the NEC
    {2, 3} under 0 and the NEC {4} under 1.  The data hubs a0=0 and
    a1=1 have label-1 rows {2, 3, 4} and {5, 6}, or with ``overlap``
    {2, 3, 4} and {3, 4, 5}."""
    query = Graph([0, 0, 1, 1, 1], [(0, 1), (0, 2), (0, 3), (1, 4)])
    rows = ((2, 3, 4), (3, 4, 5) if overlap else (5, 6))
    data = Graph(
        [0, 0] + [1] * 5,
        [(0, 1)] + [(hub, v) for hub, row in enumerate(rows) for v in row],
    )
    return query, data


#: shape -> (query, data) of the closed-form cases
CLOSED_CASES = {
    "flat": (Graph([0, 1, 2], [(0, 1), (0, 2)]), _prepare_figure4_style()[1]),
    "nec-m2": _star_case(2, 4),
    "nec-m3": _star_case(3, 5),
    "disjoint": _two_parent_case(overlap=False),
    "overlap": _two_parent_case(overlap=True),
    "shortcircuit": _block_case("shortcircuit"),
}


def _count_observed(state, closed_form, cap=None, max_expansions=None):
    """Count, counters, budget left and whether the budget ran out."""
    cpi, plan, mapping, used = state
    before = (list(mapping), bytes(used))
    stats = SearchStats()
    budget = WorkBudget(max_expansions) if max_expansions is not None else None
    try:
        count = count_leaf_matches(
            cpi, plan, mapping, used, cap=cap, stats=stats, budget=budget,
            closed_form=closed_form,
        )
    except BudgetExhausted:
        # the loop leaves ``used`` as it stopped (so does the search)
        count = "exhausted"
        used[:] = before[1]
    assert (list(mapping), bytes(used)) == before
    remaining = budget.remaining if budget is not None else None
    return count, stats.to_dict(), remaining


class TestClosedFormCount:
    def test_cases_have_their_shape(self):
        shapes = {}
        for name, (query, data) in CLOSED_CASES.items():
            plan = CFLMatch(data).prepare(query).leaf_plan
            shapes[name] = [[nec.members for nec in cls] for cls in plan.classes]
        assert shapes == {
            "flat": [[(1,)], [(2,)]],
            "nec-m2": [[(1, 2)]],
            "nec-m3": [[(1, 2, 3)]],
            "disjoint": [[(2, 3), (4,)]],
            "overlap": [[(2, 3), (4,)]],
            "shortcircuit": [[(3,)], [(4, 5)]],
        }
        query, data = CLOSED_CASES["flat"]
        assert CFLMatch(data).prepare(query).leaf_plan.flat

    @pytest.mark.parametrize(
        "name", list(CLOSED_CASES) + [n for n in BLOCK_CASES if n not in CLOSED_CASES]
    )
    def test_replays_the_loop(self, name):
        """Every ``cap`` up to past the count and every budget up to past
        the loop's nodes give the loop's count, counters, budget left
        and exhaustion."""
        query, data = CLOSED_CASES.get(name) or _block_case(name)
        for state in _leaf_states(query, data):
            count, counters, _ = _count_observed(state, False)
            nodes = counters["nodes"]
            for cap in [None] + list(range(1, count + 2)):
                for budget in [None] + list(range(nodes + 2)):
                    assert _count_observed(
                        state, True, cap, budget
                    ) == _count_observed(state, False, cap, budget), (cap, budget)

    def test_counters_follow_lemma_4_3(self):
        """One NEC of m over n: n!/(n-m)! from C(n, m) combinations;
        disjoint NECs multiply, the later NEC explored per combination
        of the earlier one."""
        counts = {}
        for name in ("nec-m3", "disjoint"):
            state = next(_leaf_states(*CLOSED_CASES[name]))
            counts[name] = _count_observed(state, True)
        count, counters, _ = counts["nec-m3"]
        assert count == 5 * 4 * 3
        assert (counters["nodes"], counters["nec_groups"]) == (3 * 10, 10)
        assert counters["nec_permutations_skipped"] == 5 * 10
        # root -> a0: NEC {4} has row {5, 6} (C = 2) and sorts first;
        # NEC {2, 3} has row {2, 3, 4} (C = 3), explored twice
        count, counters, _ = counts["disjoint"]
        assert count == 2 * (3 * 2)
        assert (counters["nodes"], counters["nec_groups"]) == (2 + 2 * 6, 2 + 6)
        assert counters["nec_permutations_skipped"] == 6

    @pytest.mark.parametrize("name", ["flat", "nec-m2", "nec-m3", "disjoint"])
    def test_closed_shapes_explore_nothing(self, name, monkeypatch):
        """Without a budget, or with enough of it, no combination is
        explored; ``cap`` stops a one-NEC class without the loop."""
        loop = leaf_match._count_class

        def refuse(*args):
            raise AssertionError("the loop ran")

        for state in _leaf_states(*CLOSED_CASES[name]):
            monkeypatch.setattr(leaf_match, "_count_class", loop)
            count, counters, _ = _count_observed(state, False)
            capped = _count_observed(state, False, cap=1)
            monkeypatch.setattr(leaf_match, "_count_class", refuse)
            assert _count_observed(state, True) == (count, counters, None)
            nodes = counters["nodes"]
            assert _count_observed(state, True, max_expansions=nodes)[2] == 0
            if name != "disjoint":
                assert _count_observed(state, True, cap=1) == capped

    def test_overlap_and_short_budget_take_the_loop(self, monkeypatch):
        calls = []
        real = leaf_match._count_class

        def spy(rows, idx, *args):
            if idx == 0:
                calls.append(len(rows))
            return real(rows, idx, *args)

        monkeypatch.setattr(leaf_match, "_count_class", spy)
        for state in _leaf_states(*CLOSED_CASES["overlap"]):
            _count_observed(state, True)
        assert calls == [2, 2]
        calls.clear()
        for state in _leaf_states(*CLOSED_CASES["flat"]):
            assert _count_observed(state, True, max_expansions=2)[0] == "exhausted"
        assert calls == [1]
