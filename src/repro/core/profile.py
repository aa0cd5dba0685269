"""Profiling entry point: one query, every counter, JSON out.

``profile_query`` runs a query end-to-end (sequentially or through the
shared-plan parallel engine) and flattens everything the observability
layer records — per-phase timers, the full :class:`SearchStats` counter
set (build + enumeration merged), per-stage estimated-vs-actual breadth,
and per-BFS-level CPI totals — into one JSON-ready dict.  The CLI's
``cfl-match profile`` subcommand and the CI profile-smoke job are thin
wrappers around it.

The output shape is pinned by ``docs/profile.schema.json``; the module
carries the same schema as :data:`PROFILE_SCHEMA` plus a dependency-free
mini JSON-Schema validator (``validate_schema``/``validate_profile``)
covering the subset the schema uses (type/required/properties/
additionalProperties/items/enum/minimum), so validation needs no
third-party package.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Union

from ..graph.graph import Graph
from .core_match import SearchTimeout
from .explain import stage_breadth
from .matcher import CFLMatch, MatchReport, PreparedQuery
from .parallel import MatcherPool
from .stats import SearchStats, cpi_level_totals, empty_phase_times, monotonic_now

PROFILE_SCHEMA_VERSION = 8

#: JSON Schema (draft-07 subset) for ``profile_query`` output.  Kept in
#: lock-step with ``docs/profile.schema.json`` (a test asserts equality).
PROFILE_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "cfl-match profile",
    "type": "object",
    "additionalProperties": False,
    "required": [
        "schema_version",
        "algorithm",
        "run",
        "data_graph",
        "query_graph",
        "embeddings",
        "status",
        "timers_s",
        "phase_times_s",
        "counters",
        "stage_nodes",
        "cpi",
        "stages",
    ],
    "properties": {
        "schema_version": {"type": "integer", "minimum": 1},
        "algorithm": {"type": "string"},
        "run": {
            "type": "object",
            "additionalProperties": False,
            "required": ["workers", "count_only", "engine"],
            "properties": {
                "workers": {"type": "integer", "minimum": 1},
                "count_only": {"type": "boolean"},
                "engine": {
                    "type": "string",
                    "enum": ["kernel", "reference"],
                },
                "limit": {"type": ["integer", "null"]},
                "max_expansions": {"type": ["integer", "null"]},
                "time_limit_s": {"type": ["number", "null"]},
            },
        },
        "data_graph": {
            "type": "object",
            "additionalProperties": False,
            "required": ["vertices", "edges"],
            "properties": {
                "vertices": {"type": "integer", "minimum": 0},
                "edges": {"type": "integer", "minimum": 0},
            },
        },
        "query_graph": {
            "type": "object",
            "additionalProperties": False,
            "required": ["vertices", "edges"],
            "properties": {
                "vertices": {"type": "integer", "minimum": 0},
                "edges": {"type": "integer", "minimum": 0},
            },
        },
        "embeddings": {"type": "integer", "minimum": 0},
        "status": {
            "type": "string",
            "enum": ["ok", "timed_out", "budget_exhausted"],
        },
        "timers_s": {
            "type": "object",
            "additionalProperties": False,
            "required": ["ordering", "enumeration", "total"],
            "properties": {
                "ordering": {"type": "number", "minimum": 0},
                "enumeration": {"type": "number", "minimum": 0},
                "total": {"type": "number", "minimum": 0},
            },
        },
        "phase_times_s": {
            "type": "object",
            "required": [
                "decomposition",
                "cpi_build",
                "ordering",
                "enumeration",
                "segment_attach",
                "cpi_repair",
            ],
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "counters": {
            "type": "object",
            "required": [
                "nodes",
                "embeddings",
                "core_expansions",
                "forest_expansions",
                "leaf_expansions",
                "backtracks",
                "injectivity_conflicts",
                "edge_check_failures",
                "backjumps",
                "nec_groups",
                "nec_permutations_skipped",
                "leaf_shortcircuits",
                "filter_degree_pruned",
                "filter_mnd_pruned",
                "filter_nlf_pruned",
                "filter_other_pruned",
                "filter_snte_pruned",
                "cpi_candidates_structural",
                "cpi_candidates_topdown",
                "refine_candidates_pruned",
                "refine_adjacency_pruned",
                "refine_passes",
                "cpi_candidates_final",
                "cpi_edges_final",
                "aux_adj_hits",
                "aux_adj_misses",
                "aux_adj_bytes",
                "cpi_repairs",
                "cpi_rebuilds",
                "dirty_region_size",
            ],
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "stage_nodes": {
            "type": "object",
            "additionalProperties": {"type": "integer", "minimum": 0},
        },
        "cpi": {
            "type": "object",
            "additionalProperties": False,
            "required": ["size", "candidate_counts", "level_candidates", "level_adjacency_edges"],
            "properties": {
                "size": {"type": "integer", "minimum": 0},
                "candidate_counts": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                },
                "level_candidates": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                },
                "level_adjacency_edges": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0},
                },
            },
        },
        "stages": {
            "type": "array",
            "items": {
                "type": "object",
                "additionalProperties": False,
                "required": ["stage", "vertices", "estimated_breadth", "actual_expansions"],
                "properties": {
                    "stage": {
                        "type": "string",
                        "enum": ["core", "forest", "leaf"],
                    },
                    "vertices": {"type": "integer", "minimum": 0},
                    "estimated_breadth": {"type": "integer", "minimum": 0},
                    "actual_expansions": {"type": "integer", "minimum": 0},
                    "truncated": {"type": "boolean"},
                },
            },
        },
    },
}


# ----------------------------------------------------------------------
# Mini JSON-Schema validation (no third-party dependency)
# ----------------------------------------------------------------------
_TYPE_CHECKS: Dict[str, Callable[[Any], bool]] = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def validate_schema(
    value: Any, schema: Dict[str, Any], path: str = "$"
) -> List[str]:
    """Validate ``value`` against the supported JSON-Schema subset.

    Returns a list of human-readable violations (empty means valid).
    Supported keywords: ``type`` (string or list), ``enum``, ``minimum``,
    ``required``, ``properties``, ``additionalProperties`` (``False`` or
    a schema), ``items``.
    """
    errors: List[str] = []
    expected: Optional[Union[str, List[str]]] = schema.get("type")
    if expected is not None:
        names = expected if isinstance(expected, list) else [expected]
        if not any(_TYPE_CHECKS[name](value) for name in names):
            errors.append(
                f"{path}: expected type {expected}, got {type(value).__name__}"
            )
            return errors
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not in {schema['enum']}")
    if (
        "minimum" in schema
        and isinstance(value, (int, float))
        and not isinstance(value, bool)
        and value < schema["minimum"]
    ):
        errors.append(f"{path}: {value} below minimum {schema['minimum']}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required property {key!r}")
        for key, sub in properties.items():
            if key in value:
                errors.extend(validate_schema(value[key], sub, f"{path}.{key}"))
        additional = schema.get("additionalProperties", True)
        extra = [key for key in value if key not in properties]
        if additional is False and extra:
            errors.append(f"{path}: unexpected properties {sorted(extra)}")
        elif isinstance(additional, dict):
            for key in extra:
                errors.extend(
                    validate_schema(value[key], additional, f"{path}.{key}")
                )
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            errors.extend(
                validate_schema(item, schema["items"], f"{path}[{index}]")
            )
    return errors


def validate_profile(payload: Dict[str, Any]) -> List[str]:
    """Violations of :data:`PROFILE_SCHEMA` in ``payload`` (empty = valid)."""
    return validate_schema(payload, PROFILE_SCHEMA)


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------
def build_profile(
    data: Graph,
    query: Graph,
    report: MatchReport,
    plan: Optional[PreparedQuery],
    workers: int,
    count_only: bool,
    limit: Optional[int],
    max_expansions: Optional[int],
    time_limit_s: Optional[float],
    engine: str = "kernel",
) -> Dict[str, Any]:
    """Assemble the schema-shaped profile dict from a finished run."""
    counters = report.counters()
    if plan is not None:
        levels = cpi_level_totals(plan.cpi)
        stages = stage_breadth(plan, report)
    else:  # the deadline fired during CPI construction
        levels = {"candidates": [], "adjacency_edges": []}
        stages = []
    return {
        "schema_version": PROFILE_SCHEMA_VERSION,
        "algorithm": CFLMatch.name,
        "run": {
            "workers": workers,
            "count_only": count_only,
            "engine": engine,
            "limit": limit,
            "max_expansions": max_expansions,
            "time_limit_s": time_limit_s,
        },
        "data_graph": {
            "vertices": data.num_vertices,
            "edges": data.num_edges,
        },
        "query_graph": {
            "vertices": query.num_vertices,
            "edges": query.num_edges,
        },
        "embeddings": report.embeddings,
        "status": report.status,
        "timers_s": {
            "ordering": report.ordering_time,
            "enumeration": report.enumeration_time,
            "total": report.total_time,
        },
        "phase_times_s": dict(report.phase_times) or empty_phase_times(),
        "counters": counters,
        "stage_nodes": dict(report.stage_nodes) if report.stage_nodes else {},
        "cpi": {
            "size": report.cpi_size,
            "candidate_counts": list(report.candidate_counts),
            "level_candidates": levels["candidates"],
            "level_adjacency_edges": levels["adjacency_edges"],
        },
        "stages": stages,
    }


def profile_query(
    data: Graph,
    query: Graph,
    workers: int = 1,
    limit: Optional[int] = None,
    max_expansions: Optional[int] = None,
    time_limit_s: Optional[float] = None,
    count_only: bool = True,
    **matcher_kwargs: Any,
) -> Dict[str, Any]:
    """Run ``query`` against ``data`` and return its full profile dict.

    ``count_only`` (the default) counts through the NEC-combination path
    — the cheap way to profile search breadth without materializing
    every leaf permutation.  ``workers > 1`` prepares once and enumerates
    through a :class:`~repro.core.parallel.MatcherPool`, reporting the
    worker-aggregated counters (which, without a ``limit``, equal the
    sequential ones exactly).  ``max_expansions`` and ``time_limit_s``
    bound work and wall clock; truncated runs come back with
    ``status`` = ``"budget_exhausted"`` / ``"timed_out"`` and partial
    counters intact.
    """
    if workers > 1 and (max_expansions is not None or time_limit_s is not None):
        raise ValueError(
            "max_expansions/time_limit_s require workers=1 (worker chunks "
            "would each need their own budget share)"
        )
    plan: Optional[PreparedQuery]
    if workers > 1:
        with MatcherPool(data, workers=workers, **matcher_kwargs) as pool:
            matcher = pool.matcher
            plan = matcher.prepare(query, use_cache=False)
            report = pool.run(
                query, limit=limit, count_only=count_only, prepared=plan
            )
    else:
        matcher = CFLMatch(data, **matcher_kwargs)
        deadline = (
            monotonic_now() + time_limit_s
            if time_limit_s is not None
            else None
        )
        build_stats = SearchStats()
        prepare_started = monotonic_now()
        try:
            plan = matcher.prepare(
                query, use_cache=False, deadline=deadline,
                build_stats=build_stats,
            )
        except SearchTimeout:
            plan = None
            report = MatchReport(
                embeddings=0,
                ordering_time=monotonic_now() - prepare_started,
                enumeration_time=0.0,
                cpi_size=0,
                candidate_counts=[],
                timed_out=True,
                phase_times=empty_phase_times(),
                build_stats=build_stats,
            )
        else:
            report = matcher.run(
                query, limit=limit, deadline=deadline,
                max_expansions=max_expansions, count_only=count_only,
                prepared=plan,
            )
    return build_profile(
        data, query, report, plan, workers, count_only, limit,
        max_expansions, time_limit_s, engine=matcher.engine,
    )
