"""Benchmark the batch query engine against one-at-a-time serving.

Measures a serving-style workload — ``--total`` queries drawn from
``--distinct`` random-walk templates over one data graph proxy, shuffled
(:func:`repro.workloads.mixed_batch_workload`) — two ways:

* **baseline**: a fresh :class:`~repro.core.CFLMatch` per query, the cost
  a naive server pays (every query rebuilds its CPI from the raw graph),
* **batch**: one :class:`~repro.core.batch.BatchMatcher` over the whole
  list — one plan per distinct query (the plan cache has no entry cap,
  only a byte bound), shared auxiliary label-pair adjacency,
  signature-grouped execution.

Every query's embedding count must agree between the two runs
(``counts_match`` — the batch engine is bit-identical serving, not an
approximation) and the batch must clear ``--min-speedup`` on wall-clock
throughput.  The workload's frequent/infrequent split (the Figure 22
classes, via :func:`repro.workloads.frequent_query_workload`) is recorded
so the report says what kind of queries the speedup came from.  Results
land in ``BENCH_batch.json`` (override with ``--out``).

Run::

    PYTHONPATH=src python benchmarks/bench_batch.py
    PYTHONPATH=src python benchmarks/bench_batch.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List, Optional

from repro.core import CFLMatch
from repro.core.batch import BatchMatcher
from repro.workloads import (
    frequent_query_workload,
    load_dataset,
    mixed_batch_workload,
)


def _run_baseline(data, queries, limit: Optional[int]) -> Dict:
    """One-at-a-time serving: a fresh matcher (and CPI build) per query."""
    counts: List[int] = []
    started = time.perf_counter()
    for query in queries:
        matcher = CFLMatch(data)
        counts.append(matcher.count(query, limit=limit))
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 6),
        "queries_per_s": round(len(queries) / wall, 2) if wall else None,
        "counts": counts,
    }


def _run_batch(data, queries, limit: Optional[int]) -> Dict:
    matcher = BatchMatcher(data)
    report = matcher.run(queries, limit=limit)
    counts = [result.embeddings for result in report.results]
    return {
        "wall_s": round(report.wall_time_s, 6),
        "queries_per_s": round(report.queries_per_s, 2),
        "counts": counts,
        "groups": report.groups,
        "plan_cache_hits": report.plan_cache_hits,
        "aux": {
            "hits": report.aux_stats.aux_adj_hits,
            "misses": report.aux_stats.aux_adj_misses,
            "bytes": report.aux_stats.aux_adj_bytes,
            "bytes_in_use": report.aux_bytes_in_use,
            "hit_rate": round(report.aux_hit_rate, 4),
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_batch.json")
    parser.add_argument("--dataset", default="hprd")
    parser.add_argument("--scale", default="small")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--distinct", type=int, default=25,
                        help="distinct query templates in the workload")
    parser.add_argument("--total", type=int, default=100,
                        help="total queries served (templates repeat)")
    parser.add_argument("--limit", type=int, default=1000,
                        help="per-query embedding cap")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: smaller workload, no speedup floor enforced",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless batch throughput beats one-at-a-time by this "
             "factor (default 2.0 unless --quick)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.distinct = 8
        args.total = 24
    min_speedup = args.min_speedup
    if min_speedup is None and not args.quick:
        min_speedup = 2.0

    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    queries = mixed_batch_workload(
        data, sizes=[4, 5, 6, 8], distinct=args.distinct, total=args.total,
        seed=args.seed,
    )
    distinct_pool = list({id(q): q for q in queries}.values())
    print(
        f"workload: {args.dataset}/{args.scale}, {len(queries)} queries "
        f"({len(distinct_pool)} distinct)",
        file=sys.stderr,
    )
    counter = CFLMatch(data)
    threshold = max(args.limit // 10, 10)
    classes = frequent_query_workload(
        data, distinct_pool, threshold,
        lambda query, limit: counter.count(query, limit=limit),
    )

    baseline = _run_baseline(data, queries, args.limit)
    batch = _run_batch(data, queries, args.limit)
    counts_match = baseline["counts"] == batch["counts"]
    speedup = (
        round(baseline["wall_s"] / batch["wall_s"], 2)
        if batch["wall_s"]
        else None
    )

    report = {
        "bench": "batch",
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "workload": {
            "dataset": args.dataset,
            "scale": args.scale,
            "seed": args.seed,
            "data_vertices": data.num_vertices,
            "data_edges": data.num_edges,
            "queries": len(queries),
            "distinct": len(distinct_pool),
            "limit": args.limit,
            "frequency_classes": {
                name: len(members) for name, members in classes.items()
            },
            "frequency_threshold": threshold,
        },
        "baseline": baseline,
        "batch": batch,
        "counts_match": counts_match,
        "speedup_batch_vs_one_at_a_time": speedup,
    }
    # the per-query count vectors are the gate, not the artifact
    del baseline["counts"], batch["counts"]

    if not counts_match:
        raise AssertionError("batch and one-at-a-time embedding counts diverge")
    if min_speedup is not None and (speedup is None or speedup < min_speedup):
        raise AssertionError(
            f"batch speedup {speedup} below required {min_speedup}"
        )

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"# written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
