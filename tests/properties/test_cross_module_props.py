"""Cross-module invariants tying independent components together."""

from hypothesis import given

from repro.core import (
    CFLMatch,
    build_cpi,
    build_naive_cpi,
    estimate_embeddings,
    evaluate_order_cost,
)
from repro.baselines import QuickSIMatch

from tests.properties.strategies import query_data_pairs


@given(query_data_pairs())
def test_cost_model_final_breadth_is_embedding_count(pair):
    """B_n of the Section-2.1 model equals the true embedding count,
    for any valid connected order (here: QuickSI's QI-sequence)."""
    query, data = pair
    order, parent, _ = QuickSIMatch(data)._prepare(query)
    breakdown = evaluate_order_cost(query, data, order, parent)
    assert breakdown.breadths[-1] == CFLMatch(data).count(query)


@given(query_data_pairs())
def test_estimates_are_monotone_across_builders(pair):
    """Cardinality estimates shrink with stronger filtering and never
    undercount: naive >= top-down >= refined >= exact."""
    query, data = pair
    naive = estimate_embeddings(build_naive_cpi(query, data, 0))
    top_down = estimate_embeddings(build_cpi(query, data, 0, refine=False))
    refined = estimate_embeddings(build_cpi(query, data, 0, refine=True))
    exact = CFLMatch(data).count(query)
    assert naive >= top_down >= refined >= exact


@given(query_data_pairs())
def test_compiled_cpi_round_trips_any_builder(pair):
    """A plan segment's flat CPI sections preserve every adjacency list
    of both the naive and the refined CPI."""
    from repro.core.shm import (
        KIND_PLAN,
        pack_segment,
        plan_sections,
        read_plan_segment,
        segment_nbytes,
    )

    query, data = pair
    # "match" mode orders the whole query like a core, so any root will do
    matcher = CFLMatch(data, mode="match")
    for cpi in (build_naive_cpi(query, data, 0), build_cpi(query, data, 0)):
        sections = plan_sections(matcher.prepare_from_cpi(query, cpi))
        buffer = bytearray(segment_nbytes(sections))
        pack_segment(buffer, KIND_PLAN, sections)
        decoded = read_plan_segment(matcher, memoryview(buffer)).cpi
        for u in query.vertices():
            assert list(decoded.candidates[u]) == list(cpi.candidates[u])
            p = cpi.tree.parent[u]
            if p is None:
                continue
            for v_p in cpi.candidates[p]:
                assert sorted(decoded.child_candidates(u, v_p)) == sorted(
                    cpi.child_candidates(u, v_p)
                )


@given(query_data_pairs())
def test_stage_nodes_account_for_all_search_work(pair):
    """run()'s per-stage counters always sum to the total node count."""
    query, data = pair
    report = CFLMatch(data).run(query)
    assert report.stage_nodes is not None
    assert sum(report.stage_nodes.values()) == report.stats.nodes
