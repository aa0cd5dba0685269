"""Benchmark the flat-array enumeration kernel against the reference engine.

Measures, on the dense-core fuzz scenario also used by
``BENCH_parallel.json``:

* enumeration wall-clock per engine on a shared prepared plan (best of
  ``--repeats``, so plan build cost is excluded and both engines walk
  the exact same CPI),
* per-search-node cost (the microarchitectural view: wall time divided
  by ``nodes``, which both engines agree on exactly),
* the count path and the full-enumeration path separately (counting
  skips leaf permutations, so the core/forest kernel dominates), and
* one-shot compile cost of the kernel lowering itself.

Every timed pair is also a correctness gate: embeddings, ``nodes`` and
``backtracks`` must be identical between engines or the script fails.
Results land in ``BENCH_kernel.json`` (override with ``--out``).

Run::

    PYTHONPATH=src python benchmarks/bench_kernel.py
    PYTHONPATH=src python benchmarks/bench_kernel.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.core import CFLMatch
from repro.core.kernel import compile_kernel_plan
from repro.testing.workloads import WorkloadSpec, generate_case


def _dense_spec(data_vertices: int, query_vertices: int) -> WorkloadSpec:
    return WorkloadSpec(
        scenarios=("dense",),
        data_vertices=(data_vertices, data_vertices),
        query_vertices=(query_vertices, query_vertices),
    )


def _bench_engine(matcher: CFLMatch, case, repeats: int, count_only: bool) -> Dict:
    from repro.core.stats import SearchStats

    plan = matcher.prepare(case.query)
    best = float("inf")
    result = None
    stats = None
    for _ in range(repeats):
        run_stats = SearchStats()
        started = time.perf_counter()
        if count_only:
            outcome = matcher.count(case.query, prepared=plan, stats=run_stats)
        else:
            outcome = sum(
                1 for _ in matcher.search(case.query, prepared=plan, stats=run_stats)
            )
        elapsed = time.perf_counter() - started
        if elapsed < best:
            best = elapsed
        result = outcome
        stats = run_stats
    per_node_us = 1e6 * best / stats.nodes if stats.nodes else None
    return {
        "wall_s": round(best, 6),
        "embeddings": result,
        "nodes": stats.nodes,
        "backtracks": stats.backtracks,
        "per_node_us": round(per_node_us, 4) if per_node_us is not None else None,
    }


def bench_pair(case, repeats: int, count_only: bool) -> Dict:
    engines = {
        "reference": CFLMatch(case.data, engine="reference"),
        "kernel": CFLMatch(case.data, engine="kernel"),
    }
    rows = {
        name: _bench_engine(matcher, case, repeats, count_only)
        for name, matcher in engines.items()
    }
    ref, ker = rows["reference"], rows["kernel"]
    for field in ("embeddings", "nodes", "backtracks"):
        if ref[field] != ker[field]:
            raise AssertionError(
                f"engine divergence on {field}: "
                f"reference={ref[field]} kernel={ker[field]}"
            )
    speedup = ref["wall_s"] / ker["wall_s"] if ker["wall_s"] else None
    return {
        "mode": "count" if count_only else "enumerate",
        "engines": rows,
        "speedup_kernel_vs_reference": round(speedup, 2) if speedup else None,
    }


def bench_loop_overhead(case, repeats: int) -> Dict:
    """Empty-body sweep over the compiled plan's candidate arrays.

    Iterates every int32 of every stage's base and CSR candidate rows
    doing no per-item work at all — the floor any per-candidate Python
    cursor loop pays before matching logic even starts.  ``per_item_us``
    is that floor per candidate, the cost any scalar intersection or
    probe loop adds per item it touches.
    """
    matcher = CFLMatch(case.data, engine="reference")
    plan = matcher.prepare(case.query)
    compiled = compile_kernel_plan(plan.cpi, plan.core_slots, plan.forest_slots)
    rows = []
    for stage in (compiled.core, compiled.forest):
        rows.extend(stage.base_v)
        rows.extend(stage.flat_v)
    rows = [row for row in rows if len(row)]
    items = sum(len(row) for row in rows)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        for row in rows:
            for _item in row:
                pass
        best = min(best, time.perf_counter() - started)
    per_item_us = 1e6 * best / items if items else None
    return {
        "rows": len(rows),
        "items": items,
        "wall_s": round(best, 6),
        "per_item_us": round(per_item_us, 4) if per_item_us is not None else None,
    }


def bench_compile_cost(case, repeats: int) -> Dict:
    """One-shot cost of lowering the plan to flat arrays (the price the
    kernel pays at prepare time, amortized by the plan cache)."""
    matcher = CFLMatch(case.data, engine="reference")
    plan = matcher.prepare(case.query)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        compile_kernel_plan(plan.cpi, plan.core_slots, plan.forest_slots)
        best = min(best, time.perf_counter() - started)
    return {"compile_ms": round(1000 * best, 3)}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_kernel.json")
    parser.add_argument("--seed", type=int, default=123)
    parser.add_argument("--index", type=int, default=8, help="case index in the stream")
    parser.add_argument("--data-vertices", type=int, default=5000)
    parser.add_argument("--query-vertices", type=int, default=9)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: fewer repeats, no speedup floor enforced",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless the kernel beats the reference by this factor "
             "on the count path",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.repeats = 2

    spec = _dense_spec(args.data_vertices, args.query_vertices)
    case = generate_case(args.seed, args.index, spec)
    print(f"workload: {case.describe()}", file=sys.stderr)

    report = {
        "bench": "kernel",
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "repeats": args.repeats,
        "workload": {
            "scenario": "dense",
            "seed": args.seed,
            "index": args.index,
            "data_vertices": case.data.num_vertices,
            "data_edges": case.data.num_edges,
            "query_vertices": case.query.num_vertices,
            "query_edges": case.query.num_edges,
        },
        "count": bench_pair(case, args.repeats, count_only=True),
        "enumerate": bench_pair(case, args.repeats, count_only=False),
        "compile": bench_compile_cost(case, args.repeats),
        "loop_overhead": bench_loop_overhead(case, args.repeats),
    }

    if args.min_speedup is not None:
        achieved = report["count"]["speedup_kernel_vs_reference"]
        if achieved is None or achieved < args.min_speedup:
            raise AssertionError(
                f"kernel speedup {achieved} below required {args.min_speedup}"
            )

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"# written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
