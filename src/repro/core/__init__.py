"""The paper's contribution: CFL decomposition, CPI, and CFL-Match."""

from .cost_model import CostBreakdown, estimate_root_costs, evaluate_order_cost
from .core_match import (
    CPIBacktracker,
    OrderedVertex,
    SearchStats,
    build_ordered_vertices,
    validate_embedding,
)
from .cpi import CPI, EMPTY_CANDIDATES, QueryBFSTree
from .cpi_builder import RepairState, build_cpi, build_naive_cpi
from .decomposition import CFLDecomposition, ForestTree, cfl_decompose
from .dynamic import (
    ContinuousQuery,
    DeltaEvent,
    IncrementalMatcher,
    dirty_region,
)
from .filters import cand_verify, full_candidate_check, label_degree_ok, mnd_ok, nlf_ok
from .leaf_match import (
    LeafNEC,
    LeafPlan,
    build_leaf_plan,
    count_leaf_matches,
    enumerate_leaf_matches,
)
from .explain import (
    estimate_embeddings,
    explain,
    render_breadth,
    render_plan,
    stage_breadth,
)
from .hierarchy import (
    forest_independent_set,
    hierarchical_core_order,
    hierarchical_shells,
)
from .kernel import (
    CompiledStage,
    KernelBacktracker,
    KernelPlan,
    compile_kernel_plan,
    compile_stage,
)
from .matcher import (
    ENGINES,
    CFLMatch,
    MatchReport,
    PreparedQuery,
    count_embeddings,
    find_embeddings,
)
from .nec import nec_classes, nec_reduction
from .ordering import (
    estimate_tree_embeddings,
    order_structure,
    path_non_tree_weight,
    path_suffix_counts,
    root_candidate_cardinalities,
    subtree_paths,
    validate_matching_order,
)
from .parallel import (
    MatcherPool,
    parallel_count,
    parallel_run,
    parallel_search,
    parallel_search_iter,
)
from .profile import (
    PROFILE_SCHEMA,
    profile_query,
    validate_profile,
    validate_schema,
)
from .root_selection import select_root
from .shm import (
    PlanSegment,
    SharedGraph,
    SharedGraphStore,
    attach_graph_store,
    attach_plan_segment,
    open_graph_file,
)
from .stats import (
    BudgetExhausted,
    WorkBudget,
    aggregate_stage_stats,
    cpi_level_totals,
    empty_phase_times,
    merge_phase_times,
)
from .verify import (
    EmbeddingSetDiff,
    diff_embedding_lists,
    verification_report,
    verify_matchers,
)

__all__ = [
    "CostBreakdown",
    "estimate_root_costs",
    "evaluate_order_cost",
    "CPIBacktracker",
    "OrderedVertex",
    "SearchStats",
    "build_ordered_vertices",
    "validate_embedding",
    "CPI",
    "EMPTY_CANDIDATES",
    "QueryBFSTree",
    "build_cpi",
    "build_naive_cpi",
    "CFLDecomposition",
    "ForestTree",
    "cfl_decompose",
    "ContinuousQuery",
    "DeltaEvent",
    "IncrementalMatcher",
    "RepairState",
    "dirty_region",
    "cand_verify",
    "full_candidate_check",
    "label_degree_ok",
    "mnd_ok",
    "nlf_ok",
    "LeafNEC",
    "LeafPlan",
    "build_leaf_plan",
    "count_leaf_matches",
    "enumerate_leaf_matches",
    "estimate_embeddings",
    "explain",
    "render_breadth",
    "render_plan",
    "stage_breadth",
    "forest_independent_set",
    "hierarchical_core_order",
    "hierarchical_shells",
    "CompiledStage",
    "KernelBacktracker",
    "KernelPlan",
    "compile_kernel_plan",
    "compile_stage",
    "ENGINES",
    "CFLMatch",
    "MatchReport",
    "PreparedQuery",
    "count_embeddings",
    "find_embeddings",
    "nec_classes",
    "nec_reduction",
    "estimate_tree_embeddings",
    "order_structure",
    "path_non_tree_weight",
    "path_suffix_counts",
    "root_candidate_cardinalities",
    "subtree_paths",
    "validate_matching_order",
    "MatcherPool",
    "parallel_count",
    "parallel_run",
    "parallel_search",
    "parallel_search_iter",
    "PROFILE_SCHEMA",
    "profile_query",
    "validate_profile",
    "validate_schema",
    "select_root",
    "PlanSegment",
    "SharedGraph",
    "SharedGraphStore",
    "attach_graph_store",
    "attach_plan_segment",
    "open_graph_file",
    "BudgetExhausted",
    "WorkBudget",
    "aggregate_stage_stats",
    "cpi_level_totals",
    "empty_phase_times",
    "merge_phase_times",
    "EmbeddingSetDiff",
    "diff_embedding_lists",
    "verification_report",
    "verify_matchers",
]
