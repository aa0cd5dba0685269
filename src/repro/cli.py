"""Command-line interface.

Examples::

    cfl-match match --data graph.txt --query query.txt --limit 10
    cfl-match ingest graph.txt graph.csr
    cfl-match count --data graph.csr --query query.txt --workers 4
    cfl-match batch queries.txt --data graph.txt --json
    cfl-match experiment fig08 --profile smoke
    cfl-match experiment all --profile small --out results/
    cfl-match datasets
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from .bench.experiments import EXPERIMENTS, PROFILES, run_experiment
from .bench.harness import MATCHERS, make_matcher
from .core.batch import DEFAULT_AUX_BYTES
from .core.matcher import ENGINES, CFLMatch
from .graph.io import load_graph
from .workloads.datasets import DATASETS, SCALES, dataset_spec


def _cmd_match(args: argparse.Namespace) -> int:
    data = load_graph(args.data)
    query = load_graph(args.query)
    workers = args.workers
    started = time.perf_counter()
    if workers > 1:
        if args.algorithm != "CFL-Match":
            print(
                f"error: --workers requires CFL-Match, not {args.algorithm}",
                file=sys.stderr,
            )
            return 2
        from .core.parallel import parallel_search_iter

        embeddings = parallel_search_iter(
            data, query, workers=workers, limit=args.limit, engine=args.engine
        )
    else:
        if args.algorithm == "CFL-Match":
            matcher = CFLMatch(data, engine=args.engine)
        else:
            if args.engine != "kernel":
                print(
                    f"error: --engine applies to CFL-Match, not {args.algorithm}",
                    file=sys.stderr,
                )
                return 2
            matcher = make_matcher(args.algorithm, data)
        embeddings = matcher.search(query, limit=args.limit)
    count = 0
    for embedding in embeddings:
        count += 1
        if not args.quiet:
            print(" ".join(f"u{u}->v{v}" for u, v in enumerate(embedding)))
    elapsed = time.perf_counter() - started
    print(f"# {count} embedding(s) in {1000 * elapsed:.1f} ms [{args.algorithm}]")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    data = load_graph(args.data)
    query = load_graph(args.query)
    started = time.perf_counter()
    if args.workers > 1:
        from .core.parallel import parallel_count

        total = parallel_count(
            data, query, workers=args.workers, limit=args.limit, engine=args.engine
        )
    else:
        total = CFLMatch(data, engine=args.engine).count(query, limit=args.limit)
    elapsed = time.perf_counter() - started
    suffix = "+" if args.limit is not None and total >= args.limit else ""
    print(f"{total}{suffix} embedding(s) in {1000 * elapsed:.1f} ms")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from .core.batch import BatchMatcher

    data = load_graph(args.data)
    manifest = Path(args.queries)
    paths: List[Path] = []
    for line in manifest.read_text().splitlines():
        entry = line.strip()
        if not entry or entry.startswith("#"):
            continue
        path = Path(entry)
        if not path.is_absolute():
            path = manifest.parent / path
        paths.append(path)
    if not paths:
        print("error: the manifest lists no query files", file=sys.stderr)
        return 2
    queries = [load_graph(str(path)) for path in paths]
    with BatchMatcher(
        data,
        workers=args.workers,
        use_aux=not args.no_aux,
        aux_max_bytes=args.aux_max_bytes,
        engine=args.engine,
    ) as matcher:
        report = matcher.run(
            queries, limit=args.limit, time_limit_s=args.time_limit
        )
    payload = report.to_dict()
    payload["query_files"] = [str(path) for path in paths]
    if args.out:
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    if args.json:
        print(json.dumps(payload, indent=2))
        return 0
    aux = payload["aux"]
    print(
        f"{len(queries)} query(ies) in {1000 * report.wall_time_s:.1f} ms "
        f"({report.queries_per_s:.1f} q/s, {report.groups} signature "
        f"group(s), workers={report.workers})"
    )
    print(
        f"plan cache hits: {report.plan_cache_hits}, "
        f"{report.plan_bytes_in_use} plan byte(s) live; aux adjacency: "
        f"{aux['hits']} hit(s), {aux['misses']} miss(es), "
        f"hit rate {aux['hit_rate']:.2f}, {aux['bytes_in_use']} byte(s) live"
    )
    for result in report.results:
        print(
            f"  [{result.index}] {paths[result.index].name}: "
            f"{result.embeddings} embedding(s), status={result.status}"
        )
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import json

    from .core.dynamic import ContinuousQuery, IncrementalMatcher
    from .graph.dynamic import DynamicGraph, parse_delta_stream

    data = load_graph(args.data)
    query = load_graph(args.query)
    deltas = parse_delta_stream(Path(args.deltas).read_text())
    dynamic = DynamicGraph.from_graph(data)
    matcher = IncrementalMatcher(
        dynamic, engine=args.engine, rebuild_threshold=args.rebuild_threshold
    )
    started = time.perf_counter()
    watch = ContinuousQuery(matcher, query, limit=args.limit)
    events = []
    for event in watch.feed(deltas):
        events.append(event)
        if not args.json:
            print(
                f"v{event.version} [{event.delta.format()}] "
                f"+{len(event.created)} -{len(event.destroyed)} "
                f"total={event.total}"
            )
    elapsed = time.perf_counter() - started
    stats = matcher.prepare(query).build_stats
    if args.json:
        payload = {
            "query": args.query,
            "data": args.data,
            "engine": args.engine,
            "events": [
                {
                    "version": event.version,
                    "delta": event.delta.format(),
                    "created": [list(e) for e in event.created],
                    "destroyed": [list(e) for e in event.destroyed],
                    "total": event.total,
                }
                for event in events
            ],
            "total": len(watch.embeddings),
            "stats": stats.to_dict(),
            "wall_time_s": elapsed,
        }
        out = json.dumps(payload, indent=2)
        if args.json == "-":
            print(out)
        else:
            Path(args.json).write_text(out + "\n")
            print(f"report written to {args.json}")
    else:
        print(
            f"# {len(events)} delta(s), {len(watch.embeddings)} final "
            f"embedding(s) in {1000 * elapsed:.1f} ms "
            f"(repairs={stats.cpi_repairs}, rebuilds={stats.cpi_rebuilds})"
        )
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from .graph.ingest import ingest_graph

    report = ingest_graph(args.source, args.out)
    print(report.render())
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    import json

    from .core.explain import (
        estimate_embeddings,
        explain,
        render_breadth,
        stage_breadth,
    )

    data = load_graph(args.data)
    query = load_graph(args.query)
    matcher = CFLMatch(data)
    prepared = matcher.prepare(query)
    report = None
    if args.execute:
        deadline = (
            time.perf_counter() + args.time_limit
            if args.time_limit is not None
            else None
        )
        report = matcher.run(
            query, prepared=prepared, count_only=True,
            deadline=deadline, max_expansions=args.max_expansions,
        )
    if args.json:
        payload = {
            "estimated_embeddings": estimate_embeddings(prepared.cpi),
            "matching_order": prepared.matching_order,
            "root": prepared.root,
            "stages": stage_breadth(prepared, report),
        }
        if report is not None:
            payload["status"] = report.status
            payload["embeddings"] = report.embeddings
        print(json.dumps(payload, indent=2))
        return 0
    print(explain(matcher, query))
    if report is not None:
        print()
        print(render_breadth(prepared, report))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .core.profile import profile_query

    data = load_graph(args.data)
    query = load_graph(args.query)
    profile = profile_query(
        data,
        query,
        workers=args.workers,
        limit=args.limit,
        max_expansions=args.max_expansions,
        time_limit_s=args.time_limit,
        count_only=not args.enumerate,
        engine=args.engine,
    )
    if args.out:
        Path(args.out).write_text(json.dumps(profile, indent=2) + "\n")
    if args.json:
        print(json.dumps(profile, indent=2))
        return 0
    print(
        f"{profile['algorithm']}: {profile['embeddings']} embedding(s), "
        f"status={profile['status']}, workers={args.workers}"
    )
    print("phase times (ms):")
    for phase, seconds in profile["phase_times_s"].items():
        print(f"  {phase:<14} {1000 * seconds:10.2f}")
    print("stages (estimated vs actual breadth):")
    for row in profile["stages"]:
        print(
            f"  {row['stage']:<8} vertices={row['vertices']:<3} "
            f"estimated={row['estimated_breadth']:<10} "
            f"actual={row['actual_expansions']}"
            + (" (partial)" if row.get("truncated") else "")
        )
    print("counters:")
    for name, value in profile["counters"].items():
        print(f"  {name:<28} {value}")
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names: List[str] = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    out_dir: Optional[Path] = Path(args.out) if args.out else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        started = time.perf_counter()
        result = run_experiment(name, args.profile)
        elapsed = time.perf_counter() - started
        rendered = result.render() + f"\n\n[{name} took {elapsed:.1f}s under profile {args.profile}]"
        print(rendered)
        print()
        if out_dir is not None:
            (out_dir / f"{name}.txt").write_text(rendered + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .core.verify import verification_report, verify_matchers
    from .workloads.store import load_workload

    data, query_sets = load_workload(args.workload)
    reference = make_matcher(args.reference, data)
    candidate = make_matcher(args.candidate, data)
    all_ok = True
    for name, queries in sorted(query_sets.items()):
        diffs = verify_matchers(data, queries, reference, candidate, limit=args.limit)
        print(f"== {name} ({args.reference} vs {args.candidate}) ==")
        print(verification_report(diffs))
        all_ok = all_ok and all(d.ok for d in diffs)
    return 0 if all_ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    corpus_dir = None if args.no_corpus else Path(args.corpus)
    if args.dynamic:
        from .testing.dynamic import run_incremental_fuzz

        if args.matchers:
            print(
                "error: --matchers does not apply to --dynamic (the "
                "incremental differential always runs both engines)",
                file=sys.stderr,
            )
            return 2
        report = run_incremental_fuzz(
            seed=args.seed,
            budget_seconds=args.budget_seconds,
            max_cases=args.max_cases,
            corpus_dir=corpus_dir,
            shrink=not args.no_shrink,
        )
    else:
        from .testing.engine import run_fuzz

        report = run_fuzz(
            seed=args.seed,
            budget_seconds=args.budget_seconds,
            matchers=args.matchers,
            max_cases=args.max_cases,
            corpus_dir=corpus_dir,
            shrink=not args.no_shrink,
            metamorphic=not args.no_metamorphic,
        )
    print(report.summary())
    if args.json == "-":
        print(report.to_json())
    elif args.json:
        Path(args.json).write_text(report.to_json() + "\n")
        print(f"report written to {args.json}")
    return 0 if report.ok else 1


def _cmd_generate(args: argparse.Namespace) -> int:
    from .workloads.datasets import load_dataset
    from .workloads.queries import QuerySetSpec, generate_query_set
    from .workloads.store import save_workload, workload_summary

    data = load_dataset(args.dataset, args.scale, seed=args.seed)
    query_sets = {}
    for size in args.query_sizes:
        for sparse in (True, False):
            spec = QuerySetSpec(size, sparse=sparse, count=args.count)
            query_sets[spec.name] = generate_query_set(
                data, spec, seed=args.seed + size + int(sparse)
            )
    save_workload(args.out, data, query_sets)
    print(f"workload written to {args.out}")
    print(workload_summary(args.out))
    return 0


def _changed_paths(root: Path, since: str) -> Optional[List[Path]]:
    """Python files changed vs ``since`` plus untracked ones, or ``None``
    when git is unavailable / not a work tree."""
    import subprocess

    commands = [
        ["git", "diff", "--name-only", since, "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ]
    names: List[str] = []
    for command in commands:
        try:
            proc = subprocess.run(
                command,
                cwd=root,
                capture_output=True,
                text=True,
                check=True,
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        names.extend(line.strip() for line in proc.stdout.splitlines())
    changed: List[Path] = []
    seen = set()
    for name in names:
        if not name.endswith(".py") or name in seen:
            continue
        seen.add(name)
        path = root / name
        if path.is_file():
            changed.append(path)
    return changed


def _cmd_lint(args: argparse.Namespace) -> int:
    import json

    from .lint import all_rules, find_root, lint_paths
    from .lint.reporting import format_rule_list, sarif_dict

    if args.list_rules:
        print(format_rule_list(all_rules()))
        return 0
    root = Path(args.root) if args.root else find_root(Path.cwd())
    if args.changed:
        changed = _changed_paths(root, args.since)
        if changed is None:
            print(
                "error: --changed needs git and a work tree at the root",
                file=sys.stderr,
            )
            return 2
        if args.paths:
            explicit = {Path(p).resolve() for p in args.paths}
            changed = [p for p in changed if p.resolve() in explicit]
        if not changed:
            print("no changed Python files; nothing to lint")
            return 0
        paths = changed
    else:
        paths = [Path(p) for p in args.paths] or [root / "src"]
    try:
        report = lint_paths(
            paths, root=root, select=args.select, no_cache=args.no_cache
        )
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.sarif:
        Path(args.sarif).write_text(json.dumps(sarif_dict(report), indent=2) + "\n")
    if args.json == "-":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        if args.json:
            Path(args.json).write_text(
                json.dumps(report.to_dict(), indent=2) + "\n"
            )
        print(report.render())
    return 0 if report.ok else 1


def _cmd_datasets(_args: argparse.Namespace) -> int:
    print(f"{'name':<10} {'scale':<7} {'|V|':>8} {'avg deg':>8} {'|Sigma|':>8}")
    for name in sorted(DATASETS):
        for scale in ("small", "medium", "full"):
            spec = dataset_spec(name, scale)
            print(
                f"{name:<10} {scale:<7} {spec.num_vertices:>8} "
                f"{spec.avg_degree:>8.1f} {spec.num_labels:>8}"
            )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfl-match",
        description="CFL-Match subgraph matching (SIGMOD 2016 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_match = sub.add_parser("match", help="enumerate embeddings of a query in a data graph")
    p_match.add_argument("--data", required=True, help="data graph file (t/v/e format)")
    p_match.add_argument("--query", required=True, help="query graph file (t/v/e format)")
    p_match.add_argument("--limit", type=int, default=None, help="max embeddings to report")
    p_match.add_argument("--algorithm", default="CFL-Match", choices=sorted(MATCHERS))
    p_match.add_argument("--quiet", action="store_true", help="print only the summary line")
    p_match.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the shared-plan parallel engine "
             "(CFL-Match only; 1 = sequential)",
    )
    p_match.add_argument(
        "--engine", default="kernel", choices=ENGINES,
        help="CFL-Match enumeration engine: compiled flat-array kernel "
             "(default) or the reference backtracker",
    )
    p_match.set_defaults(func=_cmd_match)

    p_count = sub.add_parser("count", help="count embeddings (leaf permutations not expanded)")
    p_count.add_argument("--data", required=True)
    p_count.add_argument("--query", required=True)
    p_count.add_argument("--limit", type=int, default=None)
    p_count.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for the shared-plan parallel engine (1 = sequential)",
    )
    p_count.add_argument(
        "--engine", default="kernel", choices=ENGINES,
        help="enumeration engine: compiled flat-array kernel (default) "
             "or the reference backtracker",
    )
    p_count.set_defaults(func=_cmd_count)

    p_batch = sub.add_parser(
        "batch",
        help="run a whole query workload with shared plan and auxiliary "
             "adjacency caches (bit-identical to one-at-a-time serving)",
    )
    p_batch.add_argument(
        "queries",
        help="manifest file listing one query graph file per line "
             "(relative paths resolve against the manifest's directory; "
             "'#' starts a comment)",
    )
    p_batch.add_argument("--data", required=True, help="data graph file")
    p_batch.add_argument("--limit", type=int, default=None, help="per-query embedding cap")
    p_batch.add_argument(
        "--workers", type=int, default=1,
        help="route enumeration through a persistent MatcherPool (1 = sequential)",
    )
    p_batch.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="per-query wall-clock budget (workers=1 only)",
    )
    p_batch.add_argument(
        "--no-aux", action="store_true",
        help="disable the shared auxiliary adjacency cache",
    )
    p_batch.add_argument(
        "--aux-max-bytes", type=int, default=DEFAULT_AUX_BYTES,
        help="auxiliary adjacency byte budget (LRU-evicted above it)",
    )
    p_batch.add_argument(
        "--engine", default="kernel", choices=ENGINES,
        help="enumeration engine: compiled flat-array kernel (default) "
             "or the reference backtracker",
    )
    p_batch.add_argument(
        "--json", action="store_true", help="emit the batch report as JSON"
    )
    p_batch.add_argument(
        "--out", default=None, metavar="PATH", help="also write the JSON to PATH"
    )
    p_batch.set_defaults(func=_cmd_batch)

    p_watch = sub.add_parser(
        "watch",
        help="apply a delta stream to a data graph and report created/"
             "destroyed embeddings per delta (incremental CPI repair)",
    )
    p_watch.add_argument("query", help="query graph file (t/v/e format)")
    p_watch.add_argument("--data", required=True, help="data graph file")
    p_watch.add_argument(
        "--deltas", required=True,
        help="delta stream file (one 'ae u v' / 're u v' / 'av L' / 'rv v' "
             "per line; '#' starts a comment)",
    )
    p_watch.add_argument("--limit", type=int, default=None,
                         help="max live embeddings to track")
    p_watch.add_argument("--engine", default="kernel", choices=sorted(ENGINES))
    p_watch.add_argument(
        "--rebuild-threshold", type=float, default=0.75, metavar="FRAC",
        help="rebuild the CPI outright when the dirty region exceeds this "
             "fraction of query vertices (default 0.75)",
    )
    p_watch.add_argument(
        "--json", nargs="?", const="-", default=None, metavar="PATH",
        help="emit the event log as JSON to PATH ('-' or bare flag: stdout)",
    )
    p_watch.set_defaults(func=_cmd_watch)

    p_ingest = sub.add_parser(
        "ingest",
        help="serialize a data graph to the binary CSR layout (mmap-loadable "
             "by every --data flag; same byte layout as the shared-memory "
             "graph store)",
    )
    p_ingest.add_argument("source", help="input graph file (t/v/e format)")
    p_ingest.add_argument("out", help="output .csr file")
    p_ingest.set_defaults(func=_cmd_ingest)

    p_explain = sub.add_parser("explain", help="show the matching plan for a query")
    p_explain.add_argument("--data", required=True)
    p_explain.add_argument("--query", required=True)
    p_explain.add_argument(
        "--execute", action="store_true",
        help="run the query and print the estimated-vs-actual "
        "stage-breadth table",
    )
    p_explain.add_argument(
        "--json", action="store_true",
        help="emit the plan summary and breadth rows as JSON",
    )
    p_explain.add_argument(
        "--max-expansions", type=int, default=None,
        help="work budget for --execute (partial rows are flagged)",
    )
    p_explain.add_argument(
        "--time-limit", type=float, default=None,
        help="wall-clock budget in seconds for --execute",
    )
    p_explain.set_defaults(func=_cmd_explain)

    p_profile = sub.add_parser(
        "profile",
        help="run one query and report every counter and per-phase timer",
    )
    p_profile.add_argument("data", help="data graph file (t/v/e format)")
    p_profile.add_argument("query", help="query graph file (t/v/e format)")
    p_profile.add_argument(
        "--json", action="store_true", help="emit the profile as JSON on stdout"
    )
    p_profile.add_argument(
        "--out", default=None, metavar="PATH", help="also write the JSON to PATH"
    )
    p_profile.add_argument(
        "--workers", type=int, default=1,
        help="enumerate through the parallel engine and aggregate worker "
             "counters (1 = sequential)",
    )
    p_profile.add_argument("--limit", type=int, default=None)
    p_profile.add_argument(
        "--max-expansions", type=int, default=None,
        help="work budget: stop after this many partial-match expansions "
             "(status becomes budget_exhausted; workers=1 only)",
    )
    p_profile.add_argument(
        "--time-limit", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget covering CPI build and enumeration "
             "(status becomes timed_out; workers=1 only)",
    )
    p_profile.add_argument(
        "--enumerate", action="store_true",
        help="materialize embeddings instead of NEC-combination counting",
    )
    p_profile.add_argument(
        "--engine", default="kernel", choices=ENGINES,
        help="enumeration engine: compiled flat-array kernel (default) "
             "or the reference backtracker (recorded in the profile's "
             "run section)",
    )
    p_profile.set_defaults(func=_cmd_profile)

    p_exp = sub.add_parser("experiment", help="reproduce a paper figure/table")
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS) + ["all"])
    p_exp.add_argument("--profile", default="smoke", choices=sorted(PROFILES))
    p_exp.add_argument("--out", default=None, help="directory to write result tables")
    p_exp.set_defaults(func=_cmd_experiment)

    p_verify = sub.add_parser(
        "verify", help="cross-check two algorithms on a stored workload"
    )
    p_verify.add_argument("--workload", required=True, help="workload directory")
    p_verify.add_argument("--reference", default="CFL-Match", choices=sorted(MATCHERS))
    p_verify.add_argument("--candidate", default="QuickSI", choices=sorted(MATCHERS))
    p_verify.add_argument("--limit", type=int, default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential + metamorphic fuzzing of all registered matchers",
    )
    p_fuzz.add_argument("--seed", type=int, default=0, help="workload stream seed")
    p_fuzz.add_argument(
        "--budget-seconds", type=float, default=10.0,
        help="wall-clock budget for the whole run",
    )
    p_fuzz.add_argument(
        "--matchers", nargs="+", default=None, choices=sorted(MATCHERS),
        metavar="NAME", help="matcher subset (default: all registered)",
    )
    p_fuzz.add_argument(
        "--max-cases", type=int, default=None, help="stop after this many cases"
    )
    p_fuzz.add_argument(
        "--corpus", default="tests/corpus",
        help="directory for minimized reproducers (default: tests/corpus)",
    )
    p_fuzz.add_argument(
        "--no-corpus", action="store_true", help="do not write reproducer files"
    )
    p_fuzz.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the JSON report to PATH ('-' for stdout)",
    )
    p_fuzz.add_argument(
        "--no-shrink", action="store_true", help="skip failing-case minimization"
    )
    p_fuzz.add_argument(
        "--no-metamorphic", action="store_true",
        help="differential checks only",
    )
    p_fuzz.add_argument(
        "--dynamic", action="store_true",
        help="incremental-vs-recompute fuzzing instead: seeded delta "
             "streams on every scenario, repaired plans checked "
             "bit-identical to cold re-preparation (both engines)",
    )
    p_fuzz.set_defaults(func=_cmd_fuzz)

    p_gen = sub.add_parser("generate", help="write a reproducible workload directory")
    p_gen.add_argument("--dataset", default="yeast", choices=sorted(DATASETS))
    p_gen.add_argument("--scale", default="small", choices=sorted(SCALES))
    p_gen.add_argument("--seed", type=int, default=1)
    p_gen.add_argument("--count", type=int, default=5, help="queries per set")
    p_gen.add_argument(
        "--query-sizes", type=int, nargs="+", default=[8, 12],
        help="|V(q)| values; each yields a sparse and a non-sparse set",
    )
    p_gen.add_argument("--out", required=True, help="workload directory")
    p_gen.set_defaults(func=_cmd_generate)

    p_lint = sub.add_parser(
        "lint",
        help="run the repo's AST-based invariant checks (repro-lint)",
    )
    p_lint.add_argument(
        "paths", nargs="*", default=[],
        help="files or directories to lint (default: <root>/src)",
    )
    p_lint.add_argument(
        "--json", default=None, metavar="PATH",
        help="write the JSON report to PATH ('-' for stdout)",
    )
    p_lint.add_argument(
        "--select", nargs="+", default=None, metavar="RULE",
        help="run only these rule ids (e.g. R001 R005)",
    )
    p_lint.add_argument(
        "--root", default=None,
        help="repo root for path scoping and the counter/schema cross-check "
             "(default: nearest ancestor with pyproject.toml)",
    )
    p_lint.add_argument(
        "--list-rules", action="store_true", help="describe every rule and exit"
    )
    p_lint.add_argument(
        "--changed", action="store_true",
        help="lint only Python files changed vs --since plus untracked ones",
    )
    p_lint.add_argument(
        "--since", default="HEAD", metavar="REF",
        help="git ref --changed diffs against (default: HEAD)",
    )
    p_lint.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the dataflow summary cache "
             "(.lint-cache.json)",
    )
    p_lint.add_argument(
        "--sarif", default=None, metavar="PATH",
        help="write a SARIF 2.1.0 report to PATH",
    )
    p_lint.set_defaults(func=_cmd_lint)

    p_ds = sub.add_parser("datasets", help="list dataset proxies and their scales")
    p_ds.set_defaults(func=_cmd_datasets)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. piped into `head`); exit quietly
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    sys.exit(main())
