"""The plan lowering equals the per-row code it replaced, bit for bit.

``compile_stage`` builds its CSR arrays, rank tables and frozen rows with
C-level iterators, and ``_adjacency_table`` filters each row without a
Python call per row.  This file keeps the per-row versions they replaced
as small oracles and checks that every :class:`CompiledStage` field
(arrays, dicts in key order, the per-depth dispatch) and every adjacency
table are identical, over root, tree and cross slots, backward slots
(anchored and unanchored), empty rows and tuple rows.  It also checks
that a plan segment decodes to the same stage, and that the kernel
answers and counts the same on a mmap'd ``.csr`` graph as on its
in-process copy and as the reference engine, backward-edge filters
included.
"""

from __future__ import annotations

from array import array
from itertools import product
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.core import cpi_builder
from repro.core.batch import AuxAdjacencyCache
from repro.core.core_match import failing_set_masks
from repro.core.cpi import CPI
from repro.core.cpi_builder import build_cpi, repair_cpi
from repro.core.kernel import (
    _KIND_BW,
    _KIND_CROSS,
    _KIND_ROOT,
    _KIND_TREE,
    MODE_CROSS,
    MODE_ROOT,
    MODE_TREE,
    CompiledStage,
    compile_stage,
)
from repro.core.matcher import CFLMatch
from repro.core.root_selection import select_root
from repro.core.shm import PlanSegment, _RowSet, attach_plan_segment
from repro.core.stats import SearchStats
from repro.graph import load_graph
from repro.graph.ingest import write_graph_csr
from repro.testing.workloads import (
    CONNECTED_QUERY_SCENARIOS,
    WorkloadSpec,
    generate_case,
)
from repro.workloads.paper_graphs import figure1_example, figure3_example

#: Small dense graphs: core slots carry backward edges.
DENSE_SPEC = WorkloadSpec(
    scenarios=("dense",), data_vertices=(60, 60), query_vertices=(7, 7)
)
STRATEGIES = ("paths", "hierarchical")
#: A case of that stream whose hierarchical core order has a slot
#: without an anchor that carries backward edges.
ROOT_BACKWARD_CASE = (0, 0)
#: test_backjump's jumping case and its hand order over the whole
#: query, whose sixth slot has no anchor and two backward edges.
HAND_ORDER_CASE = (3, 1)
HAND_ORDER = [5, 4, 3, 6, 2, 0, 1]


# ----------------------------------------------------------------------
# Oracles: the per-row lowering as it was written before
# ----------------------------------------------------------------------
_EMPTY: array = array("i")


def oracle_compile_stage(cpi: CPI, ordered) -> CompiledStage:
    candidates = cpi.candidates
    adjacency = cpi.adjacency
    depth_of: Dict[int, int] = {}
    slot_vertices, modes, parent_depths, parent_vertices = [], [], [], []
    base_v, base_r, indptrs, flat_vs, flat_rs = [], [], [], [], []
    cross_rows: List[Dict[int, Tuple[array, array]]] = []
    backward: List[Tuple[int, ...]] = []
    set_rows: List[Dict[int, FrozenSet[int]]] = []
    rank_of: List[Dict[int, int]] = []
    for depth, slot in enumerate(ordered):
        u = slot.u
        parent = slot.tree_parent
        slot_vertices.append(u)
        backward.append(tuple(slot.backward_neighbors))
        if parent is None:
            own = candidates[u]
            modes.append(MODE_ROOT)
            parent_depths.append(-1)
            parent_vertices.append(-1)
            base_v.append(array("i", own))
            base_r.append(array("i", range(len(own))))
            indptrs.append(_EMPTY)
            flat_vs.append(_EMPTY)
            flat_rs.append(_EMPTY)
            cross_rows.append({})
            if slot.backward_neighbors:
                set_rows.append({-1: frozenset(own)})
                rank_of.append({v: i for i, v in enumerate(own)})
            else:
                set_rows.append({})
                rank_of.append({})
        else:
            rank_in_u = {v: i for i, v in enumerate(candidates[u])}
            table = adjacency[u]
            parent_vertices.append(parent)
            base_v.append(_EMPTY)
            base_r.append(_EMPTY)
            if slot.backward_neighbors:
                set_rows.append({v_p: frozenset(row) for v_p, row in table.items()})
                rank_of.append(rank_in_u)
            else:
                set_rows.append({})
                rank_of.append({})
            if parent in depth_of:
                modes.append(MODE_TREE)
                parent_depths.append(depth_of[parent])
                indptr = array("i", [0])
                fv = array("i")
                fr = array("i")
                for v_p in candidates[parent]:
                    row = table.get(v_p)
                    if row:
                        fv.extend(row)
                        fr.extend([rank_in_u[v] for v in row])
                    indptr.append(len(fv))
                indptrs.append(indptr)
                flat_vs.append(fv)
                flat_rs.append(fr)
                cross_rows.append({})
            else:
                modes.append(MODE_CROSS)
                parent_depths.append(-1)
                indptrs.append(_EMPTY)
                flat_vs.append(_EMPTY)
                flat_rs.append(_EMPTY)
                rows = {}
                for v_p in sorted(table):
                    row = table[v_p]
                    rows[v_p] = (
                        array("i", row),
                        array("i", [rank_in_u[v] for v in row]),
                    )
                cross_rows.append(rows)
        depth_of[u] = depth
    return CompiledStage(
        length=len(slot_vertices),
        slot_vertices=tuple(slot_vertices),
        modes=tuple(modes),
        parent_depths=tuple(parent_depths),
        parent_vertices=tuple(parent_vertices),
        base_v=tuple(base_v),
        base_r=tuple(base_r),
        indptrs=tuple(indptrs),
        flat_v=tuple(flat_vs),
        flat_r=tuple(flat_rs),
        cross_rows=tuple(cross_rows),
        backward=tuple(backward),
        set_rows=tuple(set_rows),
        rank_of=tuple(rank_of),
        ancestors=failing_set_masks(ordered),
    )


def oracle_adjacency_table(parents, rows, keep) -> Dict[int, List[int]]:
    table: Dict[int, List[int]] = {}
    for v_p, row in zip(parents, rows):
        kept = [v for v in row if v in keep]
        if kept:
            table[v_p] = kept
    return table


def oracle_dispatch(stage: CompiledStage):
    """``KernelBacktracker``'s per-depth dispatch as its constructor
    derived it before the stage carried it."""
    length = stage.length
    needs_rank = [False] * length
    kinds, template_v, template_r = [], [], []
    for depth in range(length):
        mode = stage.modes[depth]
        anchored = stage.parent_depths[depth]
        if mode == MODE_TREE and anchored >= 0:
            needs_rank[anchored] = True
        if mode == MODE_TREE:
            template_v.append(stage.flat_v[depth])
            template_r.append(stage.flat_r[depth])
            kind = _KIND_TREE
        elif mode == MODE_ROOT:
            template_v.append(stage.base_v[depth])
            template_r.append(stage.base_r[depth])
            kind = _KIND_ROOT
        else:
            template_v.append(_EMPTY)
            template_r.append(_EMPTY)
            kind = _KIND_CROSS
        kinds.append(_KIND_BW if stage.backward[depth] else kind)
    depth_of = {u: d for d, u in enumerate(stage.slot_vertices)}
    cache_dep = []
    for depth in range(length):
        if kinds[depth] != _KIND_BW:
            cache_dep.append(-1)
            continue
        deps = [stage.parent_depths[depth]]
        deps.extend(depth_of.get(w, -1) for w in stage.backward[depth])
        deepest = max(deps)
        cache_dep.append(deepest if 0 <= deepest <= depth - 2 else -1)
    return {
        "kinds": tuple(kinds),
        "needs_rank": tuple(needs_rank),
        "template_v": tuple(template_v),
        "template_r": tuple(template_r),
        "base_len": tuple(len(row) for row in stage.base_v),
        "cache_dep": tuple(cache_dep),
    }


# ----------------------------------------------------------------------
# Exact comparison: type, typecode, values and dict order
# ----------------------------------------------------------------------
def _plain(value, exact: bool):
    """``value`` as nested plain data.  ``exact`` keeps each array's
    type and typecode; without it arrays and memoryviews both read as
    lists (a decoded stage holds views of the segment)."""
    if isinstance(value, array):
        return ("array", value.typecode, list(value)) if exact else list(value)
    if isinstance(value, memoryview):
        return ("memoryview", list(value)) if exact else list(value)
    if isinstance(value, dict):
        return ("dict", [(k, _plain(v, exact)) for k, v in value.items()])
    if isinstance(value, (tuple, list)):
        return (type(value).__name__ if exact else "seq",
                [_plain(v, exact) for v in value])
    return value


def assert_same_stage(got: CompiledStage, want: CompiledStage, exact=True):
    for name in CompiledStage.__slots__:
        assert _plain(getattr(got, name), exact) == _plain(
            getattr(want, name), exact
        ), name


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------
def _cases():
    cases = [("figure3", figure3_example().data, figure3_example().query)]
    ex = figure1_example(4, 6)
    cases.append(("figure1", ex.data, ex.query))
    for name in CONNECTED_QUERY_SCENARIOS:
        spec = WorkloadSpec(scenarios=(name,))
        for seed in range(8):
            case = generate_case(seed, 0, spec)
            cases.append((f"{name}-{seed}", case.data, case.query))
    for seed in range(8):
        case = generate_case(seed, 0, DENSE_SPEC)
        cases.append((f"dense60-{seed}", case.data, case.query))
    return cases


CASES = _cases()


def _with_odd_rows(cpi: CPI) -> CPI:
    """``cpi`` with tuple rows and, in every table, an empty row for a
    parent candidate that had none (or for a fresh key)."""
    adjacency = []
    for u, table in enumerate(cpi.adjacency):
        odd = {v_p: tuple(row) for v_p, row in table.items()}
        parent = cpi.tree.parent[u]
        if parent is not None:
            missing = [v for v in cpi.candidates[parent] if v not in odd]
            odd[missing[0] if missing else -7] = ()
        adjacency.append(odd)
    return CPI(cpi.tree, cpi.data, list(cpi.candidates), adjacency)


def test_compile_stage_equals_per_row_oracle():
    seen = set()
    for (name, data, query), strategy in product(CASES, STRATEGIES):
        plan = CFLMatch(data, engine="reference", core_strategy=strategy).prepare(query)
        for cpi in (plan.cpi, _with_odd_rows(plan.cpi)):
            for slots in (plan.core_slots, plan.forest_slots):
                got = compile_stage(cpi, slots)
                assert_same_stage(got, oracle_compile_stage(cpi, slots))
                dispatch = oracle_dispatch(got)
                for field, want in dispatch.items():
                    assert _plain(getattr(got, field), True) == _plain(want, True), (
                        name, field)
                for mode, checks in zip(got.modes, got.backward):
                    seen.add((mode, bool(checks)))
    assert {(MODE_ROOT, False), (MODE_ROOT, True), (MODE_TREE, False),
            (MODE_TREE, True), (MODE_CROSS, False)} <= seen, seen


def test_restricted_stage_dispatch_follows_its_base():
    """``with_base`` swaps the root slot's arrays; the swapped stage's
    dispatch reads the new base, as a fresh backtracker's did."""
    case = generate_case(0, 0, DENSE_SPEC)
    plan = CFLMatch(case.data).prepare(case.query)
    restricted = plan.kernel.with_root_candidates(plan.cpi.candidates[plan.root][::2])
    for stage in (restricted.core, restricted.forest):
        for field, want in oracle_dispatch(stage).items():
            assert _plain(getattr(stage, field), True) == _plain(want, True), field


def test_restricting_an_unanchored_backward_root_filters_its_set():
    """An order that puts the CPI root after one of its neighbors gives
    its slot no anchor and a backward edge: restriction swaps its
    frozen candidate set too, and the restricted runs partition the
    full run, equally on both engines."""
    case = generate_case(*HAND_ORDER_CASE, DENSE_SPEC)
    runs = {}
    for engine in ("kernel", "reference"):
        matcher = CFLMatch(case.data, mode="match", engine=engine)
        root = matcher.prepare(case.query).root
        first = min(case.query.neighbors(root))
        order = [first, root]
        order += [u for u in case.query.vertices() if u not in order]
        plan = matcher.prepare_from_cpi(
            case.query, build_cpi(case.query, case.data, root), core_order=order
        )
        candidates = plan.cpi.candidates[root]
        halves = (candidates[::2], candidates[1::2])
        runs[engine] = [
            list(matcher.search(case.query, prepared=plan, root_candidates=half))
            for half in halves
        ]
        full = list(matcher.search(case.query, prepared=plan))
        assert sorted(runs[engine][0] + runs[engine][1]) == sorted(full)
        if engine == "kernel":
            depth = plan.kernel.core.slot_vertices.index(root)
            assert plan.kernel.core.modes[depth] == MODE_ROOT
            assert plan.kernel.core.backward[depth]
            restricted = plan.kernel.with_root_candidates(halves[0]).core
            assert restricted.set_rows[depth] == {-1: frozenset(halves[0])}
    assert runs["kernel"] == runs["reference"]


def test_decoded_stage_equals_compiled_stage():
    unanchored = generate_case(*ROOT_BACKWARD_CASE, DENSE_SPEC)
    plans = [CFLMatch(data).prepare(query) for _, data, query in CASES[::3]]
    plans.append(
        CFLMatch(unanchored.data, core_strategy="hierarchical").prepare(unanchored.query)
    )
    assert any(
        mode == MODE_ROOT and checks
        for mode, checks in zip(plans[-1].kernel.core.modes, plans[-1].kernel.core.backward)
    )
    for sent in plans:
        data = sent.cpi.data
        segment = PlanSegment.create(sent)
        try:
            plan, attached = attach_plan_segment(CFLMatch(data), segment.name)
            for got, want in ((plan.kernel.core, sent.kernel.core),
                              (plan.kernel.forest, sent.kernel.forest)):
                assert_same_stage(got, want, exact=False)
            del plan, got
            attached.close()
        finally:
            segment.unlink()
            segment.close()


@pytest.fixture(scope="module")
def csr_graphs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("lowering")
    graphs = {}
    for name, data, _ in CASES:
        path = directory / f"{name}.csr"
        write_graph_csr(data, path)
        graphs[name] = load_graph(path)
    return graphs


def test_adjacency_table_equals_per_row_oracle(monkeypatch, csr_graphs):
    """Every table the builders and the repair sweep make, on plain and
    mmap'd graphs, with and without aux rows (tuples)."""
    calls = []
    real = cpi_builder._adjacency_table

    def spy(parents, rows, keep):
        rows = list(rows)
        got = real(parents, rows, keep)
        # snapshot now: refinement edits the table in place afterwards
        calls.append((list(got.items()), oracle_adjacency_table(parents, rows, keep),
                      rows, parents))
        return got

    monkeypatch.setattr(cpi_builder, "_adjacency_table", spy)
    for name, data, query in CASES:
        for graph in (data, csr_graphs[name]):
            root = select_root(query, graph)
            build_cpi(query, graph, root)
            build_cpi(query, graph, root, aux=AuxAdjacencyCache(graph))
        repair_cpi(query, data, select_root(query, data))
    kinds = set()
    dropped = 0
    for got, want, rows, parents in calls:
        assert got == list(want.items())
        assert all(type(row) is list for _, row in got)
        kinds.update(type(row).__name__ for row in rows)
        dropped += min(len(rows), len(parents)) - len(got)
    assert {"list", "tuple", "memoryview"} <= kinds, kinds
    assert dropped > 0


# ----------------------------------------------------------------------
# Kernel differential: mmap'd .csr graph against its in-process copy
# ----------------------------------------------------------------------
def test_kernel_on_csr_graph_matches_in_process_copy(monkeypatch, csr_graphs):
    intersected = []
    real_iter = _RowSet.__iter__

    def counting_iter(self):
        intersected.append(len(self))
        return real_iter(self)

    filtered = 0
    for name, data, query in CASES:
        mapped = csr_graphs[name]
        results = []
        for graph in (data, mapped):
            matcher = CFLMatch(graph)
            plan = matcher.prepare(query)
            filtered += plan.kernel.core.kinds.count(_KIND_BW)
            stats = SearchStats()
            if graph is mapped:
                monkeypatch.setattr(_RowSet, "__iter__", counting_iter)
            embeddings = list(matcher.search(query, stats=stats, prepared=plan))
            count_stats = SearchStats()
            count = matcher.count(query, stats=count_stats, prepared=plan)
            monkeypatch.setattr(_RowSet, "__iter__", real_iter)
            results.append((embeddings, stats.to_dict(), count, count_stats.to_dict()))
        assert results[0] == results[1], name
    assert filtered > 0
    # the backward filter intersected frozen rows with the graph's facades
    assert intersected


def _unanchored_run(graph, query, hand: bool, engine: str):
    """One search whose core has a slot without an anchor that carries
    backward edges: the hand order over the whole query, or the
    hierarchical core order."""
    if hand:
        matcher = CFLMatch(graph, mode="match", engine=engine)
        root = matcher.prepare(query).root
        plan = matcher.prepare_from_cpi(
            query, build_cpi(query, graph, root), core_order=HAND_ORDER
        )
    else:
        matcher = CFLMatch(graph, engine=engine, core_strategy="hierarchical")
        plan = matcher.prepare(query)
    stats = SearchStats()
    return plan, list(matcher.search(query, stats=stats, prepared=plan)), stats


def test_unanchored_backward_slots_on_csr_graph(monkeypatch, tmp_path):
    """An unanchored backward-checked slot filters its whole candidate
    set; on an mmap'd ``.csr`` graph the filter iterates the graph's
    ``_RowSet`` facades.  The kernel gives the reference engine's
    embeddings in order and its ``nodes``, ``backtracks``, ``backjumps``
    and ``embeddings``, and every counter of its in-process run."""
    iterated = []
    real_iter = _RowSet.__iter__

    def counting_iter(self):
        iterated.append(len(self))
        return real_iter(self)

    cases = [(generate_case(*HAND_ORDER_CASE, DENSE_SPEC), True)]
    cases += [
        (generate_case(seed, index, DENSE_SPEC), False)
        for seed in range(3) for index in range(20)
    ]
    checked = 0
    for n, (case, hand) in enumerate(cases):
        path = tmp_path / f"case-{n}.csr"
        write_graph_csr(case.data, path)
        mapped = load_graph(path)
        plan, got, got_stats = _unanchored_run(mapped, case.query, hand, "kernel")
        core = plan.kernel.core
        if not any(m == MODE_ROOT and b for m, b in zip(core.modes, core.backward)):
            continue
        checked += 1
        before = len(iterated)
        monkeypatch.setattr(_RowSet, "__iter__", counting_iter)
        again = _unanchored_run(mapped, case.query, hand, "kernel")[1]
        monkeypatch.setattr(_RowSet, "__iter__", real_iter)
        assert again == got and len(iterated) > before
        _, want, want_stats = _unanchored_run(mapped, case.query, hand, "reference")
        assert got == want, n
        for name in ("nodes", "backtracks", "backjumps", "embeddings"):
            assert getattr(got_stats, name) == getattr(want_stats, name), (n, name)
        _, local, local_stats = _unanchored_run(case.data, case.query, hand, "kernel")
        assert (local, local_stats.to_dict()) == (got, got_stats.to_dict()), n
    assert checked >= 5
