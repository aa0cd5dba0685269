"""Benchmark the shared-plan parallel execution engine.

Measures, on a dense-core fuzz workload:

* the worker scaling curve (wall-clock for ``parallel_count`` at
  1/2/4/8 workers and the speedup over 1 worker),
* how many times ``prepare()`` actually ran per parallel query
  (the shared-plan engine's invariant: exactly one),
* ``MatcherPool`` serving throughput over a stream of repeated
  queries versus a short-lived pool per query (and how many
  shared-memory graph stores the pool created: none under fork, whose
  workers inherit the graph, and exactly one under spawn, whose workers
  attach it by name; neither re-materializes the graph),
* the ``CFLMatch`` plan-cache hit behaviour that backs the pool,
* sequential vs worker-aggregated search counters (the observability
  layer's invariant: merging per-chunk ``SearchStats`` reproduces the
  single-process counters exactly), and
* the ingest path: ``cfl-match ingest`` file write + zero-copy mmap
  load versus re-parsing the text format, with a parallel count run
  straight off the mmap'd graph.

Results land in ``BENCH_parallel.json`` (override with ``--out``).
The scaling claim is *gated* on the host: with 4+ CPUs the 4-worker
row must reach a 1.5x speedup; on smaller hosts (this includes 1-CPU
CI containers) speedup is unmeasurable, so the gate flips to "engine
overhead at 4 workers stays within 1.1x of the 1-worker run" and the
``scaling_gate`` field records which claim was checked.

Run::

    PYTHONPATH=src python benchmarks/bench_parallel.py
    PYTHONPATH=src python benchmarks/bench_parallel.py --quick
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro.core import CFLMatch, MatcherPool
from repro.core.parallel import parallel_count, parallel_run
from repro.core.shm import SharedGraph, SharedGraphStore
from repro.graph.ingest import load_graph_csr, write_graph_csr
from repro.graph.io import load_graph, save_graph
from repro.testing.workloads import WorkloadSpec, generate_case


def _dense_spec(data_vertices: int, query_vertices: int) -> WorkloadSpec:
    return WorkloadSpec(
        scenarios=("dense",),
        data_vertices=(data_vertices, data_vertices),
        query_vertices=(query_vertices, query_vertices),
    )


def _prepare_counter():
    """Fork-shared counter patched into ``CFLMatch._prepare_fresh`` so
    worker-side prepares (if any) are counted alongside the parent's."""
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    counter = ctx.Value("i", 0)
    original = CFLMatch._prepare_fresh

    def counted(self, query):
        with counter.get_lock():
            counter.value += 1
        return original(self, query)

    return counter, counted, original


def _store_counter():
    """Fork-shared counter patched over ``SharedGraphStore.create`` so a
    worker sneaking a second graph materialization onto the host (instead
    of attaching the parent's store by name) is counted too."""
    ctx = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    counter = ctx.Value("i", 0)
    original = SharedGraphStore.create.__func__

    def counted(cls, source, name=None):
        with counter.get_lock():
            counter.value += 1
        return original(cls, source, name)

    return counter, classmethod(counted), original


def bench_scaling(case, worker_counts: List[int], repeats: int) -> Dict:
    rows = []
    expected: Optional[int] = None
    for workers in worker_counts:
        counter, counted, original = _prepare_counter()
        CFLMatch._prepare_fresh = counted
        try:
            best = float("inf")
            total = None
            for _ in range(repeats):
                started = time.perf_counter()
                total = parallel_count(case.data, case.query, workers=workers)
                best = min(best, time.perf_counter() - started)
        finally:
            CFLMatch._prepare_fresh = original
        if expected is None:
            expected = total
        elif total != expected:
            raise AssertionError(
                f"workers={workers} counted {total}, expected {expected}"
            )
        rows.append(
            {
                "workers": workers,
                "wall_s": round(best, 4),
                "embeddings": total,
                "prepares_per_query": counter.value // repeats,
            }
        )
    base = rows[0]["wall_s"]
    for row in rows:
        row["speedup_vs_1_worker"] = round(base / row["wall_s"], 2) if row["wall_s"] else None
    return {"embeddings": expected, "rows": rows}


def bench_pool_serving(case, workers: int, queries: int) -> Dict:
    """One persistent pool serving a stream vs a short-lived pool per
    query.

    Also checks the zero-copy invariant: the whole query stream lays the
    data graph into shared memory once under spawn (workers attach by
    name) and never under fork (workers inherit it).
    """
    counter, counted, original = _store_counter()
    SharedGraphStore.create = counted
    started = time.perf_counter()
    try:
        with MatcherPool(case.data, workers=workers) as pool:
            for _ in range(queries):
                pool.count(case.query)
            cache = {
                "prepare_count": pool.matcher.prepare_count,
                "plan_cache_hits": pool.matcher.plan_cache_hits,
            }
            start_method = pool.start_method
    finally:
        SharedGraphStore.create = classmethod(original)
    pooled = time.perf_counter() - started
    stores_created = counter.value

    started = time.perf_counter()
    for _ in range(queries):
        with MatcherPool(case.data, workers=workers) as fresh_pool:
            fresh_pool.count(case.query)
    fresh = time.perf_counter() - started

    return {
        "workers": workers,
        "queries": queries,
        "pool_wall_s": round(pooled, 4),
        "fresh_engine_wall_s": round(fresh, 4),
        "pool_ms_per_query": round(1000 * pooled / queries, 2),
        "fresh_ms_per_query": round(1000 * fresh / queries, 2),
        "pool_speedup": round(fresh / pooled, 2) if pooled else None,
        "start_method": start_method,
        "graph_stores_created": stores_created,
        "graph_stores_expected": 0 if start_method == "fork" else 1,
        "plan_cache": cache,
    }


def bench_ingest(case, workers: int) -> Dict:
    """The ``cfl-match ingest`` path: binary write, zero-copy mmap load
    vs text re-parse, and a parallel count straight off the mmap."""
    sequential = CFLMatch(case.data).count(case.query)
    with tempfile.TemporaryDirectory() as tmp:
        text_path = Path(tmp) / "data.graph"
        csr_path = Path(tmp) / "data.csr"
        save_graph(case.data, text_path)

        started = time.perf_counter()
        report = write_graph_csr(case.data, csr_path)
        write_s = time.perf_counter() - started

        started = time.perf_counter()
        text_graph = load_graph(text_path)
        text_load_s = time.perf_counter() - started

        started = time.perf_counter()
        mapped = load_graph_csr(csr_path)
        mmap_load_s = time.perf_counter() - started

        parallel = parallel_count(mapped, case.query, workers=workers)
        return {
            "workers": workers,
            "csr_bytes": report.total_bytes,
            "text_bytes": text_path.stat().st_size,
            "section_bytes": dict(report.section_bytes),
            "write_ms": round(1000 * write_s, 2),
            "text_load_ms": round(1000 * text_load_s, 2),
            "mmap_load_ms": round(1000 * mmap_load_s, 2),
            "load_speedup": (
                round(text_load_s / mmap_load_s, 2) if mmap_load_s else None
            ),
            "zero_copy": isinstance(mapped, SharedGraph),
            "embeddings": parallel,
            "counts_match": (
                parallel == sequential and text_graph == mapped
            ),
        }


def scaling_gate(scaling: Dict, cpus: int) -> Dict:
    """The host-conditional scaling claim (see module docstring)."""
    rows = {row["workers"]: row for row in scaling["rows"]}
    base = rows.get(1)
    probe = rows.get(4) or rows[max(rows)]
    if base is None or probe is base:
        return {"claim": "skipped", "reason": "need 1- and multi-worker rows",
                "passed": True}
    if cpus >= 4:
        speedup = probe["speedup_vs_1_worker"]
        return {
            "claim": f"speedup >= 1.5x at {probe['workers']} workers",
            "workers": probe["workers"],
            "speedup": speedup,
            "passed": bool(speedup is not None and speedup >= 1.5),
        }
    overhead = (
        round(probe["wall_s"] / base["wall_s"], 3) if base["wall_s"] else None
    )
    return {
        "claim": (
            f"overhead <= 1.1x at {probe['workers']} workers "
            f"(only {cpus} cpu(s): parallel speedup unmeasurable)"
        ),
        "workers": probe["workers"],
        "overhead": overhead,
        "passed": bool(overhead is not None and overhead <= 1.1),
    }


def bench_plan_cache(case, queries: int) -> Dict:
    matcher = CFLMatch(case.data)
    cold_started = time.perf_counter()
    matcher.count(case.query)
    cold = time.perf_counter() - cold_started
    warm_started = time.perf_counter()
    for _ in range(queries - 1):
        matcher.count(case.query)
    warm = (time.perf_counter() - warm_started) / max(queries - 1, 1)
    return {
        "queries": queries,
        "prepare_count": matcher.prepare_count,
        "plan_cache_hits": matcher.plan_cache_hits,
        "cold_ms": round(1000 * cold, 2),
        "warm_ms_per_query": round(1000 * warm, 2),
    }


def bench_counters(case, workers: int) -> Dict:
    """Sequential vs worker-aggregated search counters on the workload.

    Both runs count all embeddings (no limit), so every counter —
    build-side and enumeration-side — must agree exactly when the
    per-chunk worker stats are merged back together.
    """
    seq = CFLMatch(case.data).run(case.query, limit=None, count_only=True)
    par = parallel_run(
        case.data, case.query, workers=workers, limit=None, count_only=True
    )
    seq_counters = seq.counters()
    par_counters = par.counters()
    return {
        "workers": workers,
        "embeddings": seq.embeddings,
        "sequential": seq_counters,
        "parallel_aggregate": par_counters,
        "aggregation_consistent": (
            seq_counters == par_counters and seq.embeddings == par.embeddings
        ),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_parallel.json")
    parser.add_argument("--seed", type=int, default=20160626)
    parser.add_argument("--index", type=int, default=2, help="case index in the stream")
    parser.add_argument("--data-vertices", type=int, default=2000)
    parser.add_argument("--query-vertices", type=int, default=8)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--serving-queries", type=int, default=8)
    parser.add_argument(
        "--workers", type=int, nargs="+", default=[1, 2, 4, 8],
        help="worker counts for the scaling curve",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: small graph, workers 1 and 2, one repeat",
    )
    args = parser.parse_args(argv)

    if args.quick:
        args.data_vertices = min(args.data_vertices, 200)
        args.query_vertices = min(args.query_vertices, 6)
        args.index = 5 if args.index == 2 else args.index
        args.workers = [1, 2]
        args.repeats = 1
        args.serving_queries = 4

    spec = _dense_spec(args.data_vertices, args.query_vertices)
    case = generate_case(args.seed, args.index, spec)
    print(f"workload: {case.describe()}", file=sys.stderr)

    report = {
        "bench": "parallel",
        "cpus": os.cpu_count(),
        "note": (
            "single-CPU host: speedup_vs_1_worker can only measure engine "
            "overhead, not parallelism; the scaling gate checks overhead"
        ) if os.cpu_count() == 1 else None,
        "start_methods": multiprocessing.get_all_start_methods(),
        "python": sys.version.split()[0],
        "workload": {
            "scenario": "dense",
            "seed": args.seed,
            "index": args.index,
            "data_vertices": case.data.num_vertices,
            "data_edges": case.data.num_edges,
            "query_vertices": case.query.num_vertices,
            "query_edges": case.query.num_edges,
        },
        "scaling": bench_scaling(case, args.workers, args.repeats),
        "pool_serving": bench_pool_serving(
            case, workers=min(2, max(args.workers)), queries=args.serving_queries
        ),
        "plan_cache": bench_plan_cache(case, queries=args.serving_queries),
        "counters": bench_counters(case, workers=min(4, max(2, max(args.workers)))),
        "ingest": bench_ingest(case, workers=min(2, max(args.workers))),
    }
    report["scaling_gate"] = scaling_gate(report["scaling"], os.cpu_count() or 1)

    for row in report["scaling"]["rows"]:
        if row["workers"] > 1 and row["prepares_per_query"] != 1:
            raise AssertionError(
                f"shared-plan invariant violated: {row['prepares_per_query']} "
                f"prepares at workers={row['workers']}"
            )
    if not report["counters"]["aggregation_consistent"]:
        raise AssertionError(
            "worker-aggregated counters diverged from the sequential run"
        )
    serving = report["pool_serving"]
    if serving["graph_stores_created"] != serving["graph_stores_expected"]:
        raise AssertionError(
            "zero-copy invariant violated: the pool materialized "
            f"{serving['graph_stores_created']} graph stores for one data "
            f"graph under {serving['start_method']}"
        )
    if not report["ingest"]["counts_match"]:
        raise AssertionError("mmap-loaded graph diverged from the text graph")
    # --quick shrinks the workload until pool startup dominates the wall
    # clock, so the timing-based gate is only enforced on full runs.
    if not args.quick and not report["scaling_gate"]["passed"]:
        raise AssertionError(
            f"scaling gate failed: {report['scaling_gate']}"
        )

    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(json.dumps(report, indent=2))
    print(f"# written to {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
