"""Benchmark incremental CPI repair against full re-preparation.

A standing query watches a mutating data graph (a pinned synthetic
graph with a *uniform* ``--labels``-wide alphabet — the continuous-query
scenario: the graph evolves everywhere, but most single-edge deltas
touch labels the standing query never reads, so the incremental matcher
proves them no-ops from the touch log; the remainder repair only the
label-dirty CPI region).  A pinned stream of ``--deltas`` edge
insertions/removals is applied twice:

* **baseline**: after every delta, a cold :class:`~repro.core.CFLMatch`
  re-prepares the query from scratch (``use_cache=False``) — the cost a
  static engine pays to stay current,
* **incremental**: one :class:`~repro.core.dynamic.IncrementalMatcher`
  synchronizes its registered plan per delta — label-disjoint deltas are
  proved no-ops, the rest repair only the dirty region of the CPI.

Both sides count embeddings (``--limit``-capped) after every delta and
the per-step count vectors must be identical (``counts_match`` — repair
is bit-exact maintenance, not an approximation).  The prepare/sync
wall-clock ratio must clear ``--min-speedup`` (default 5.0 unless
``--quick``).  Results land in ``BENCH_dynamic.json``.

Run::

    PYTHONPATH=src python benchmarks/bench_dynamic.py
    PYTHONPATH=src python benchmarks/bench_dynamic.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.core import CFLMatch
from repro.core.dynamic import IncrementalMatcher
from repro.graph.dynamic import Delta, DynamicGraph
from repro.graph.generators import random_walk_query, synthetic_graph
from repro.graph.graph import Graph


def edge_delta_stream(
    base: Graph, rng: random.Random, length: int
) -> List[Delta]:
    """A pinned stream of valid edge flips (no vertex ops, so the plan
    never rebuilds for renumbering — the bench isolates repair cost)."""
    scratch = DynamicGraph.from_graph(base)
    deltas: List[Delta] = []
    vertices = list(range(base.num_vertices))
    while len(deltas) < length:
        u, v = rng.sample(vertices, 2)
        if scratch.has_edge(u, v):
            delta = Delta.remove_edge(u, v)
        else:
            delta = Delta.add_edge(u, v)
        scratch.apply(delta)
        deltas.append(delta)
    return deltas


def run_baseline(
    base: Graph, query: Graph, deltas: List[Delta], limit: Optional[int]
) -> Tuple[Dict, List[int]]:
    """Cold re-prepare + count after every delta."""
    dynamic = DynamicGraph.from_graph(base)
    counts: List[int] = []
    prepare_wall = 0.0
    started = time.perf_counter()
    for delta in deltas:
        dynamic.apply(delta)
        matcher = CFLMatch(dynamic)
        t0 = time.perf_counter()
        prepared = matcher.prepare(query, use_cache=False)
        prepare_wall += time.perf_counter() - t0
        counts.append(matcher.count(query, limit=limit, prepared=prepared))
    wall = time.perf_counter() - started
    return {
        "wall_s": round(wall, 6),
        "prepare_wall_s": round(prepare_wall, 6),
        "prepares": len(deltas),
    }, counts


def run_incremental(
    base: Graph,
    query: Graph,
    deltas: List[Delta],
    limit: Optional[int],
) -> Tuple[Dict, List[int]]:
    """One registered plan, synchronized per delta."""
    dynamic = DynamicGraph.from_graph(base)
    matcher = IncrementalMatcher(dynamic)
    matcher.prepare(query)              # registration is not timed
    counts: List[int] = []
    sync_wall = 0.0
    started = time.perf_counter()
    for delta in deltas:
        dynamic.apply(delta)
        t0 = time.perf_counter()
        prepared = matcher.prepare(query)
        sync_wall += time.perf_counter() - t0
        counts.append(
            matcher.matcher.count(query, limit=limit, prepared=prepared)
        )
    wall = time.perf_counter() - started
    stats = matcher.prepare(query).build_stats
    return {
        "wall_s": round(wall, 6),
        "sync_wall_s": round(sync_wall, 6),
        "cpi_repairs": stats.cpi_repairs,
        "cpi_rebuilds": stats.cpi_rebuilds,
        "dirty_region_size": stats.dirty_region_size,
    }, counts


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_dynamic.json")
    parser.add_argument("--vertices", type=int, default=20000)
    parser.add_argument("--avg-degree", type=float, default=6.0)
    parser.add_argument("--labels", type=int, default=400,
                        help="uniform label alphabet width")
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument("--deltas", type=int, default=120,
                        help="edge flips in the pinned stream")
    parser.add_argument("--query-size", type=int, default=6)
    parser.add_argument("--limit", type=int, default=1000,
                        help="per-step embedding cap")
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: short stream, no speedup floor enforced",
    )
    parser.add_argument(
        "--min-speedup", type=float, default=None,
        help="fail unless per-delta sync beats cold re-prepare by this "
             "factor (default 5.0 unless --quick)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.vertices = 4000
        args.deltas = 30
    min_speedup = args.min_speedup
    if min_speedup is None and not args.quick:
        min_speedup = 5.0

    data = synthetic_graph(
        args.vertices, avg_degree=args.avg_degree, num_labels=args.labels,
        seed=args.seed, label_exponent=0.0,
    )
    rng = random.Random(args.seed)
    query = random_walk_query(data, args.query_size, rng)
    deltas = edge_delta_stream(data, rng, args.deltas)
    print(
        f"workload: synthetic ({data.num_vertices} vertices, "
        f"{data.num_labels} uniform labels), "
        f"{len(deltas)} edge deltas, query size {query.num_vertices}",
        file=sys.stderr,
    )

    baseline, baseline_counts = run_baseline(data, query, deltas, args.limit)
    incremental, incremental_counts = run_incremental(
        data, query, deltas, args.limit
    )
    counts_match = baseline_counts == incremental_counts
    speedup = (
        round(baseline["prepare_wall_s"] / incremental["sync_wall_s"], 2)
        if incremental["sync_wall_s"]
        else None
    )

    report = {
        "bench": "dynamic",
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "workload": {
            "generator": "synthetic-uniform-labels",
            "seed": args.seed,
            "data_vertices": data.num_vertices,
            "data_edges": data.num_edges,
            "data_labels": data.num_labels,
            "deltas": len(deltas),
            "query_vertices": query.num_vertices,
            "limit": args.limit,
        },
        "baseline": baseline,
        "incremental": incremental,
        "counts_match": counts_match,
        "speedup_repair_vs_reprepare": speedup,
    }

    if not counts_match:
        raise AssertionError(
            "incremental and re-prepare embedding counts diverge"
        )
    if min_speedup is not None and (speedup is None or speedup < min_speedup):
        raise AssertionError(
            f"repair speedup {speedup} below required {min_speedup}"
        )

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"# written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
