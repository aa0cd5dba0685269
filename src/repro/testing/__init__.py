"""Correctness tooling: workload generation, differential and
metamorphic fuzzing, failing-case minimization, and the regression
corpus.  See ``docs/testing.md`` for the oracle hierarchy and the
corpus replay convention."""

from .corpus import (
    graph_from_dict,
    graph_to_dict,
    load_corpus,
    replay_entry,
    save_reproducer,
)
from .differential import Mismatch, differential_check, run_matcher
from .dynamic import (
    DYNAMIC_ENGINES,
    DeltaCase,
    DynamicFuzzReport,
    generate_delta_case,
    generate_label_disjoint_case,
    incremental_differential_check,
    label_disjoint_check,
    run_incremental_fuzz,
)
from .engine import FuzzReport, MismatchRecord, run_fuzz
from .metamorphic import (
    METAMORPHIC_RELATIONS,
    disjoint_union,
    metamorphic_check,
    permute_vertices,
    rename_labels,
)
from .oracles import (
    brute_force_count,
    brute_force_embeddings,
    is_brute_force_tractable,
)
from .shrinker import (
    DeltaShrinkResult,
    ShrinkResult,
    shrink_case,
    shrink_delta_case,
    stream_applies,
)
from .workloads import (
    CONNECTED_QUERY_SCENARIOS,
    DEFAULT_SCENARIOS,
    DYNAMIC_BASE_SCENARIOS,
    SCENARIOS,
    FuzzCase,
    WorkloadSpec,
    dynamic_delta_workload,
    generate_case,
    generate_cases,
    generate_delta_stream,
)

__all__ = [
    "CONNECTED_QUERY_SCENARIOS",
    "DEFAULT_SCENARIOS",
    "DYNAMIC_BASE_SCENARIOS",
    "DYNAMIC_ENGINES",
    "METAMORPHIC_RELATIONS",
    "SCENARIOS",
    "DeltaCase",
    "DeltaShrinkResult",
    "DynamicFuzzReport",
    "FuzzCase",
    "FuzzReport",
    "Mismatch",
    "MismatchRecord",
    "ShrinkResult",
    "WorkloadSpec",
    "brute_force_count",
    "brute_force_embeddings",
    "differential_check",
    "disjoint_union",
    "dynamic_delta_workload",
    "generate_case",
    "generate_cases",
    "generate_delta_case",
    "generate_delta_stream",
    "generate_label_disjoint_case",
    "graph_from_dict",
    "graph_to_dict",
    "incremental_differential_check",
    "is_brute_force_tractable",
    "label_disjoint_check",
    "load_corpus",
    "metamorphic_check",
    "permute_vertices",
    "rename_labels",
    "replay_entry",
    "run_fuzz",
    "run_incremental_fuzz",
    "run_matcher",
    "save_reproducer",
    "shrink_case",
    "shrink_delta_case",
    "stream_applies",
]
