"""Benchmark the round-2 optimizer: filters and adaptive re-planning.

Two workloads, two gates:

* **Mis-estimated ordering** — dense cases whose pinned matching order
  is adversarially wrong (the cost-model-chosen core order with its
  suffix reversed, exactly the Cartesian-product trap the paper's
  ordering exists to avoid).  The baseline runs the bad plan as pinned;
  the optimized configuration (label-pair + NLI filters, adaptive
  re-planning) must recover by re-planning mid-search:
  ``--min-speedup`` gates the aggregate wall-clock ratio (target 1.3x).
* **Dense regression** — the ``BENCH_kernel.json`` dense workload with
  a *well-chosen* order, where the optimizer has nothing to fix: the
  all-features-on run must stay within ``--min-dense-ratio`` (target
  0.95x) of the plain kernel, i.e. the features are close to free when
  they do not fire.

Every timed configuration is also a correctness gate: embedding counts
must agree across the pinned-bad, optimized, and well-ordered runs of
each case (``counts_match`` in the report) or the script fails.  An
ablation sweep (each feature alone on the first mis-estimated case)
feeds the table in ``docs/performance.md``.

Run::

    PYTHONPATH=src python benchmarks/bench_optimizer.py
    PYTHONPATH=src python benchmarks/bench_optimizer.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.core import CFLMatch, SearchStats
from repro.testing.workloads import WorkloadSpec, generate_case

#: The all-features-on configuration both gates run.
OPTIMIZED = {
    "label_pair_filter": True,
    "nli_filter": True,
    "adaptive": True,
    "adaptive_ratio": 2.0,
    "adaptive_min_nodes": 256,
}

#: Single-feature configurations for the ablation sweep.
ABLATIONS = {
    "label-pair+nli": {"label_pair_filter": True, "nli_filter": True},
    "adaptive": {
        "adaptive": True, "adaptive_ratio": 2.0, "adaptive_min_nodes": 256,
    },
}


def _misestimated_spec(data_vertices: int, query_vertices: int) -> WorkloadSpec:
    return WorkloadSpec(
        scenarios=("dense",),
        data_vertices=(data_vertices, data_vertices),
        query_vertices=(query_vertices, query_vertices),
    )


def _bad_orders(plan) -> tuple:
    """The adversarial pin: keep the root slot, reverse the rest of the
    core order.  ``build_ordered_vertices`` turns the disconnected
    prefix into full-candidate-set slots with backward edge checks —
    correct, but the Cartesian-product blowup the paper's ordering
    avoids.  The forest order stays (forest slots rely on
    parent-before-child)."""
    core = plan.core_order
    bad_core = [core[0]] + list(reversed(core[1:])) if core else core
    return bad_core, list(plan.forest_order)


def _timed_count(matcher: CFLMatch, query, plan, repeats: int) -> Dict:
    best = float("inf")
    count = None
    stats = None
    for _ in range(repeats):
        run_stats = SearchStats()
        started = time.perf_counter()
        count = matcher.count(query, prepared=plan, stats=run_stats)
        best = min(best, time.perf_counter() - started)
        stats = run_stats
    return {
        "wall_s": round(best, 4),
        "embeddings": count,
        "nodes": stats.nodes,
        "adaptive_replans": stats.adaptive_replans,
        "backjumps": stats.backjumps,
    }


def bench_misestimated(
    seed: int, indices: List[int], data_vertices: int, query_vertices: int,
    repeats: int, ablate: bool,
) -> Dict:
    spec = _misestimated_spec(data_vertices, query_vertices)
    cases = []
    counts_match = True
    total_bad = total_opt = 0.0
    for position, index in enumerate(indices):
        case = generate_case(seed, index, spec)
        plain = CFLMatch(case.data)
        plan = plain.prepare(case.query)
        bad_core, forest = _bad_orders(plan)
        bad_plan = plain.prepare_from_cpi(
            case.query, plan.cpi, core_order=bad_core, forest_order=forest
        )
        rows: Dict[str, Dict] = {
            "well-ordered": _timed_count(plain, case.query, plan, repeats),
            "pinned-bad": _timed_count(plain, case.query, bad_plan, repeats),
        }
        optimized = CFLMatch(case.data, **OPTIMIZED)
        opt_plan = optimized.prepare_from_cpi(
            case.query, plan.cpi, core_order=bad_core, forest_order=forest
        )
        rows["optimized"] = _timed_count(optimized, case.query, opt_plan, repeats)
        if ablate and position == 0:
            for name, config in ABLATIONS.items():
                feature = CFLMatch(case.data, **config)
                feature_plan = feature.prepare_from_cpi(
                    case.query, plan.cpi, core_order=bad_core, forest_order=forest
                )
                rows[f"ablation/{name}"] = _timed_count(
                    feature, case.query, feature_plan, repeats
                )
        reference_count = rows["well-ordered"]["embeddings"]
        case_match = all(
            row["embeddings"] == reference_count for row in rows.values()
        )
        counts_match = counts_match and case_match
        if not case_match:
            raise AssertionError(
                f"count divergence on case {index}: "
                f"{ {name: row['embeddings'] for name, row in rows.items()} }"
            )
        total_bad += rows["pinned-bad"]["wall_s"]
        total_opt += rows["optimized"]["wall_s"]
        cases.append({
            "index": index,
            "data_vertices": case.data.num_vertices,
            "data_edges": case.data.num_edges,
            "query_vertices": case.query.num_vertices,
            "query_edges": case.query.num_edges,
            "bad_core_order": bad_core,
            "runs": rows,
            "speedup_optimized_vs_pinned_bad": round(
                rows["pinned-bad"]["wall_s"] / rows["optimized"]["wall_s"], 2
            ) if rows["optimized"]["wall_s"] else None,
        })
    aggregate = total_bad / total_opt if total_opt else None
    return {
        "seed": seed,
        "scenario": "dense",
        "cases": cases,
        "counts_match": counts_match,
        "aggregate_speedup": round(aggregate, 2) if aggregate else None,
    }


def bench_dense_regression(
    seed: int, index: int, data_vertices: int, query_vertices: int, repeats: int
) -> Dict:
    spec = _misestimated_spec(data_vertices, query_vertices)
    case = generate_case(seed, index, spec)
    plain = CFLMatch(case.data)
    optimized = CFLMatch(case.data, **OPTIMIZED)
    rows = {
        "plain": _timed_count(
            plain, case.query, plain.prepare(case.query), repeats
        ),
        "optimized": _timed_count(
            optimized, case.query, optimized.prepare(case.query), repeats
        ),
    }
    if rows["plain"]["embeddings"] != rows["optimized"]["embeddings"]:
        raise AssertionError(
            f"count divergence on the dense workload: "
            f"plain={rows['plain']['embeddings']} "
            f"optimized={rows['optimized']['embeddings']}"
        )
    ratio = (
        rows["plain"]["wall_s"] / rows["optimized"]["wall_s"]
        if rows["optimized"]["wall_s"] else None
    )
    return {
        "seed": seed,
        "index": index,
        "data_vertices": case.data.num_vertices,
        "data_edges": case.data.num_edges,
        "query_vertices": case.query.num_vertices,
        "runs": rows,
        "counts_match": True,
        "ratio_plain_vs_optimized": round(ratio, 3) if ratio else None,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_optimizer.json")
    parser.add_argument("--seed", type=int, default=99)
    parser.add_argument(
        "--indices", type=int, nargs="+", default=[19, 44],
        help="dense-stream case indices for the mis-estimated workload",
    )
    parser.add_argument("--data-vertices", type=int, default=600)
    parser.add_argument("--query-vertices", type=int, default=8)
    parser.add_argument("--dense-seed", type=int, default=123)
    parser.add_argument("--dense-index", type=int, default=8)
    parser.add_argument(
        "--dense-data-vertices", type=int, default=5000,
        help="BENCH_kernel's dense workload size for the regression gate",
    )
    parser.add_argument("--dense-query-vertices", type=int, default=9)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: one mis-estimated case, one repeat, smaller dense "
        "workload, no floors enforced",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless optimized beats pinned-bad by this aggregate "
        "factor on the mis-estimated workload",
    )
    parser.add_argument(
        "--min-dense-ratio", type=float, default=None,
        help="fail unless plain/optimized wall-clock ratio on the dense "
        "workload is at least this (0.95 = at most 5%% regression)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = 1
        args.indices = args.indices[:1]
        args.dense_data_vertices = min(args.dense_data_vertices, 1500)

    misestimated = bench_misestimated(
        args.seed, args.indices, args.data_vertices, args.query_vertices,
        repeats=1, ablate=True,
    )
    print(
        f"mis-estimated aggregate speedup: "
        f"{misestimated['aggregate_speedup']}x",
        file=sys.stderr,
    )
    dense = bench_dense_regression(
        args.dense_seed, args.dense_index, args.dense_data_vertices,
        args.dense_query_vertices, args.repeats,
    )
    print(
        f"dense plain/optimized ratio: {dense['ratio_plain_vs_optimized']}",
        file=sys.stderr,
    )

    report = {
        "bench": "optimizer",
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "repeats": args.repeats,
        "optimized_config": OPTIMIZED,
        "misestimated": misestimated,
        "dense_regression": dense,
        "counts_match": misestimated["counts_match"] and dense["counts_match"],
    }

    if args.min_speedup is not None:
        achieved = misestimated["aggregate_speedup"]
        if achieved is None or achieved < args.min_speedup:
            raise AssertionError(
                f"mis-estimated speedup {achieved} below required "
                f"{args.min_speedup}"
            )
    if args.min_dense_ratio is not None:
        achieved = dense["ratio_plain_vs_optimized"]
        if achieved is None or achieved < args.min_dense_ratio:
            raise AssertionError(
                f"dense ratio {achieved} below required {args.min_dense_ratio}"
            )

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"# written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
