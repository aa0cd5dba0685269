"""One layered benchmark for the CFL-Match reproduction.

Run from the repository root::

    python3 perfbench/run.py                   # all workloads, both modes, history row
    python3 perfbench/run.py --check           # ... then compare with the baseline rows
    python3 perfbench/run.py --workload dense-core --seed 3 --seconds 18 --trace 0

For each workload the runner builds seeded input files under
``perfbench/_work/`` (see ``workloads.py``), computes the expected
answers with the reference engine, times the library in a fresh child
process (``child.py``), checks every answer, and prints every metric by
name and unit.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` reports the per-layer ones from traced passes (``tracing.py``) plus
``python -m repro.cli`` runs, whose answers are checked too.  The last
line of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  Without ``--workload`` every workload runs, in both modes
unless ``--trace`` is given; a run of both modes whose answers all
matched appends one row keyed by commit to
``perfbench/BENCH_history.jsonl``.

Exit status: 0 when every answer matched (and ``--check`` found no
regression), 1 otherwise, 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import zip_longest
from pathlib import Path
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
HISTORY = HERE / "BENCH_history.jsonl"

#: traced runs: share of ``--seconds`` spent on library passes; the CLI
#: runs get the rest (untraced runs spend it all on library passes)
LIBRARY_SHARE = 0.6
#: protocol minimums (``--quick`` drops both to one)
MIN_PASSES = 5
MIN_CLI_RUNS = 3
#: a child or CLI process that exceeds this is killed and fails the run
PROCESS_TIMEOUT_S = 170
#: ``--check`` compares with the median of this many baseline rows
BASELINE_ROWS = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: share of the previous value by which the metric may worsen
    bound: Optional[float] = None


#: the speed probe's time (``child.probe_work``) at the reference speed:
#: its fastest time on a 2-vCPU KVM guest (Intel Xeon, CPUID model 207,
#: 2.1 GHz) under CPython 3.11
REFERENCE_PROBE_S = 40e-6

#: Every workload reports each of these, so each must mean something on
#: every workload and never read 0.  The times are a pass's set-up and
#: serve time at the reference speed (``at_reference_speed``), median
#: over the run's passes: on a shared host other tenants slow the
#: processor by up to 2x in spells of milliseconds to minutes, so raw
#: wall time measures the host as much as the program (see README.md).
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("serve_s", "s", "lower", 0.20),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
)

#: End-to-end numbers that apply to some workloads only, or that repeat
#: too poorly to bound, come first; the traced run reports them next to
#: the layer metrics.
PER_LAYER = tuple(Metric(*spec) for spec in (
    ("wall_s", "s", "lower"),
    ("query_p50_ms", "ms", "lower"),
    ("query_tail_ms", "ms", "lower"),
    ("cli_wall_s", "s", "lower"),
    ("cli.startup_s", "s", "lower"),
    ("graph.io.load_text_ms", "ms", "lower"),
    ("graph.ingest.load_csr_ms", "ms", "lower"),
    ("core.decomposition.decompose_ms", "ms", "lower"),
    ("core.root_selection.select_root_ms", "ms", "lower"),
    ("core.cpi_builder.build_ms", "ms", "lower"),
    ("core.cpi_builder.topdown_ms", "ms", "lower"),
    ("core.cpi_builder.refine_ms", "ms", "lower"),
    ("core.ordering.order_ms", "ms", "lower"),
    ("core.ordering.estimate_ms", "ms", "lower"),
    ("core.kernel.data_csr_ms", "ms", "lower"),
    ("core.kernel.compile_ms", "ms", "lower"),
    ("core.matcher.prepare_ms", "ms", "lower"),
    ("core.filters.degree_pruned", "count", "higher"),
    ("core.filters.mnd_pruned", "count", "higher"),
    ("core.filters.nlf_pruned", "count", "higher"),
    ("core.filters.pass_ratio", "ratio", "lower"),
    ("core.cpi_builder.candidates_final", "count", "lower"),
    ("core.cpi_builder.edges_final", "count", "lower"),
    ("core.cpi_builder.refine_pruned", "count", "higher"),
    ("core.kernel.core_ms", "ms", "lower"),
    ("core.kernel.core_nodes", "count", "lower"),
    ("core.kernel.us_per_node", "us", "lower"),
    ("core.kernel.backtracks", "count", "lower"),
    ("core.kernel.forest_ms", "ms", "lower"),
    ("core.kernel.forest_nodes", "count", "lower"),
    ("core.leaf_match.leaf_ms", "ms", "lower"),
    ("core.leaf_match.nec_groups", "count", "lower"),
    ("core.matcher.emit_ms", "ms", "lower"),
    ("core.matcher.count_ms", "ms", "lower"),
    ("core.matcher.run_ms", "ms", "lower"),
    ("core.matcher.embeddings_per_s", "1/s", "higher"),
    ("core.matcher.plan_cache_hit_rate", "ratio", "higher"),
    ("core.batch.aux_hit_rate", "ratio", "higher"),
    ("core.batch.aux_bytes", "B", "lower"),
    ("core.batch.groups", "count", "lower"),
    ("graph.dynamic.apply_ms", "ms", "lower"),
    ("core.dynamic.sync_ms", "ms", "lower"),
    ("core.dynamic.refresh_ms", "ms", "lower"),
    ("core.dynamic.cpi_repairs", "count", "higher"),
    ("core.dynamic.cpi_rebuilds", "count", "lower"),
    ("core.dynamic.noop_frac", "ratio", "higher"),
    ("core.parallel.count_w2_s", "s", "lower"),
    ("core.parallel.speedup_w2", "ratio", "higher"),
    ("trace.unattributed_frac", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
))

UNITS = {m.name: m.unit for m in END_TO_END + PER_LAYER}


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def summary(values: Sequence[float]) -> Dict[str, float]:
    """The reported value (the median), quartiles (as
    ``statistics.quantiles`` gives them) and n."""
    values = list(values)
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"value": median, "q1": q1, "q3": q3, "n": len(values)}


def at_reference_speed(passes: Sequence[Dict[str, Any]]) -> Tuple[List[float], List[float]]:
    """Each pass's set-up and serve time at the reference speed.

    A pass's speed is the mean over its probes of ``REFERENCE_PROBE_S``
    divided by the probe's time; its CPU time, less the probes' own, is
    scaled by that speed.  A pass too short to hold a probe gets the
    run's speed."""
    everything = [s for p in passes for s in p["setup_probes_s"] + p["serve_probes_s"]]
    setups, serves = [], []
    for p in passes:
        probes = p["setup_probes_s"] + p["serve_probes_s"] or everything
        speed = statistics.fmean(REFERENCE_PROBE_S / s for s in probes)
        setups.append((p["setup_cpu_s"] - sum(p["setup_probes_s"])) * speed)
        serves.append((p["serve_cpu_s"] - sum(p["serve_probes_s"])) * speed)
    return setups, serves


def tail(values: Sequence[float]) -> float:
    """The highest percentile with at least ten samples beyond it (the
    11th-largest sample), but never below the median: with 21 samples or
    fewer no percentile above the median has ten samples beyond it."""
    ordered = sorted(values)
    median = statistics.median(ordered)
    return max(ordered[-11], median) if len(ordered) > 10 else median


# ----------------------------------------------------------------------
# inputs, expected answers and processes
# ----------------------------------------------------------------------
def _env() -> Dict[str, str]:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    paths = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths), TMPDIR=str(WORK / "tmp"))


def prepare_inputs(workload, seed: int) -> Path:
    """The seed's input directory, built once per workload definition."""
    fingerprint = hashlib.sha256((HERE / "workloads.py").read_bytes()).hexdigest()[:12]
    directory = WORK / fingerprint / workload.name / f"seed-{seed}"
    if not (directory / "inputs.done").exists():
        partial = directory.with_name(directory.name + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        partial.mkdir(parents=True)
        workload.build(seed, partial)
        (partial / "inputs.done").write_text("")
        shutil.rmtree(directory, ignore_errors=True)
        partial.rename(directory)
    return directory


def expected_path(workload, directory: Path) -> Path:
    return (directory if workload.seed_dependent else directory.parent) / "expected.json"


def expected_answers(workload, seed: int, directory: Path) -> Dict[str, List[Any]]:
    """Reference-engine answers, cached next to the inputs."""
    path = expected_path(workload, directory)
    if not path.exists():
        answers = workload.expected(seed, directory)
        path.write_text(json.dumps(answers) + "\n")
    return json.loads(path.read_text())


def run_child(workload, directory: Path, seconds: float, trace: bool, quick: bool) -> Dict:
    spec = directory / ("child-trace.json" if trace else "child.json")
    out = spec.with_suffix(".out.json")
    out.unlink(missing_ok=True)
    spec.write_text(json.dumps({
        "workload": workload.name,
        "directory": str(directory),
        "seconds": seconds,
        # traced runs need this many passes of each kind
        "min_passes": (1 if quick else MIN_PASSES) * (2 if trace else 1),
        "trace": trace,
        "out": str(out),
    }))
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(spec)],
        env=_env(), cwd=ROOT, stdout=sys.stderr, check=True, timeout=PROCESS_TIMEOUT_S,
    )
    return json.loads(out.read_text())


def run_cli(args: List[str], stdout: Path) -> int:
    """Exit status of one CLI run (-1 when it timed out)."""
    with open(stdout, "w") as handle:
        try:
            return subprocess.run(
                [sys.executable, "-m", "repro.cli", *args],
                env=_env(), cwd=ROOT, stdout=handle, timeout=PROCESS_TIMEOUT_S,
            ).returncode
        except subprocess.TimeoutExpired:
            print(f"error: CLI run {args[:1]} timed out", file=sys.stderr)
            return -1


def cli_runs(workload, directory: Path, seconds: float, min_runs: int):
    """Timed CLI repetitions; returns (wall samples, answers per run)."""
    out = directory / "cli-out"
    out.mkdir(exist_ok=True)
    walls, answers = [], []
    stop = perf_counter() + seconds
    while len(walls) < min_runs or perf_counter() < stop:
        commands = workload.cli_commands(directory, out)
        started = perf_counter()
        codes = [run_cli(c.args, c.stdout) for c in commands]
        walls.append(perf_counter() - started)
        got = None
        if not any(codes):
            try:
                got = workload.cli_answers([c.stdout.read_text() for c in commands])
            except (ValueError, KeyError, IndexError) as exc:
                print(f"error: unparseable CLI output: {exc!r}", file=sys.stderr)
        answers.append(got or [None] * len(commands))
    return walls, answers


def cli_startup(runs: int) -> List[float]:
    """Wall time of ``python -m repro.cli --help``: interpreter plus imports."""
    walls = []
    for _ in range(runs):
        started = perf_counter()
        run_cli(["--help"], WORK / "tmp" / "help.txt")
        walls.append(perf_counter() - started)
    return walls


def compare(got: Sequence[Any], want: Sequence[Any], what: str) -> int:
    """Number of mismatched answers; each one is reported."""
    failed = 0
    for index, (g, w) in enumerate(zip_longest(got, want)):
        if g != w:
            failed += 1
            print(f"error: {what} answer {index}: got {str(g)[:80]}, expected {str(w)[:80]}",
                  file=sys.stderr)
    return failed


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def measure(workload, seed: int, seconds: float, trace: bool, quick: bool) -> Dict[str, Any]:
    """Run one workload end to end; returns answers checked and metrics."""
    name = workload.name
    directory = prepare_inputs(workload, seed)
    expected = expected_answers(workload, seed, directory)
    library_s = LIBRARY_SHARE * seconds if trace else seconds
    try:
        child = run_child(workload, directory, library_s, trace, quick)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        # the failed pass's requests count as failed; there is nothing to measure
        print(f"error: {name}: the measuring process failed: {exc}", file=sys.stderr)
        requests = len(expected["library"])
        return {"attempted": requests, "failed": requests, "metrics": {}}

    attempted = failed = 0
    for number, record in enumerate(child["passes"]):
        attempted += len(expected["library"])
        failed += compare(record["answers"], expected["library"], f"{name} pass {number}")
    if not trace:
        return {"attempted": attempted, "failed": failed, "metrics": e2e_metrics(child)}
    attempted += len(expected.get("extra", []))
    failed += compare(child["extra_answers"], expected.get("extra", []), f"{name} extra")
    runs = 1 if quick else MIN_CLI_RUNS
    walls, answers = cli_runs(workload, directory, seconds - library_s, runs)
    for number, got in enumerate(answers):
        attempted += len(expected["cli"])
        failed += compare(got, expected["cli"], f"{name} CLI run {number}")
    metrics = layer_metrics(workload, child, walls, cli_startup(runs))
    return {"attempted": attempted, "failed": failed, "metrics": metrics}


def e2e_metrics(child: Dict) -> Dict[str, Dict[str, float]]:
    setups, serves = at_reference_speed(child["passes"])
    return {
        "setup_s": summary(setups),
        "serve_s": summary(serves),
        "peak_rss_mb": summary([child["peak_rss_mb"]]),
    }


def layer_metrics(
    workload, child: Dict, cli_walls: List[float], startup: List[float]
) -> Dict[str, Dict[str, float]]:
    traced = [p for p in child["passes"] if p["traced"]]
    untraced = [p for p in child["passes"] if not p["traced"]]
    plain = statistics.median(p["wall_s"] for p in untraced)
    raw: Dict[str, float] = {}
    for key in {k for p in traced for k in p["layers"]}:
        raw[key] = statistics.median(p["layers"].get(key, 0.0) for p in traced)
    raw.update(child["extra_layers"])

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    raw["core.kernel.us_per_node"] = ratio(1000 * raw.get("core.kernel.core_ms", 0.0),
                                           raw.get("core.kernel.core_nodes", 0.0))
    verified = raw.get("core.filters.verified", 0.0)
    pruned = raw.get("core.filters.mnd_pruned", 0.0) + raw.get("core.filters.nlf_pruned", 0.0)
    raw["core.filters.pass_ratio"] = ratio(verified - pruned, verified)
    raw["core.matcher.plan_cache_hit_rate"] = ratio(
        raw.get("core.matcher.plan_cache_hits", 0.0), raw.get("core.matcher.prepares", 0.0))
    raw["core.dynamic.noop_frac"] = ratio(
        raw.get("core.dynamic.noop_repairs", 0.0), raw.get("core.dynamic.repairs_traced", 0.0))
    raw["core.matcher.embeddings_per_s"] = ratio(raw.get("core.matcher.embeddings", 0.0), plain)
    raw["trace.overhead_frac"] = statistics.median(p["wall_s"] for p in traced) / plain - 1
    if workload.request_latency:
        latencies_ms = [1000 * x for p in untraced for x in p["latency_s"]]
        raw["query_p50_ms"] = statistics.median(latencies_ms)
        raw["query_tail_ms"] = tail(latencies_ms)
    raw["wall_s"] = plain
    raw["cli_wall_s"] = statistics.median(cli_walls)
    raw["cli.startup_s"] = statistics.median(startup)
    return {m.name: summary([raw.get(m.name, 0.0)]) for m in PER_LAYER}


# ----------------------------------------------------------------------
# history
# ----------------------------------------------------------------------
def _git(*args: str) -> Optional[str]:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def history_row(seed: int, seconds: float, results: Dict[str, Dict]) -> Dict[str, Any]:
    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "HEAD") or "unknown",
        "dirty": bool(status) if status is not None else None,
        "time": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "seed": seed,
        "seconds": seconds,
        "workloads": results,
    }


def identity(row: Dict[str, Any]) -> Tuple[str, Optional[bool]]:
    """What a row measured: a commit, and whether ``src/`` differed from it."""
    return row["commit"], row["dirty"]


def baseline(row: Dict[str, Any], rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The latest rows (up to ``BASELINE_ROWS``) of the one identity that
    ``row`` is checked against, among rows with the same seed and seconds
    and end-to-end results for every workload.

    That identity is a clean run of another identity: for a dirty run the
    clean run of its own commit (the parent of the uncommitted change)
    when there is one, else the latest.  With none, it is the row's own
    identity, so a re-run is checked against the earlier runs."""
    comparable = [
        r for r in rows
        if (r["seed"], r["seconds"]) == (row["seed"], row["seconds"])
        and all("e2e" in w for w in r["workloads"].values())
    ]
    clean = [r for r in comparable if r["dirty"] is False and identity(r) != identity(row)]
    if row["dirty"]:
        clean = [r for r in clean if r["commit"] == row["commit"]] or clean
    pool = clean or [r for r in comparable if identity(r) == identity(row)]
    if not pool:
        return []
    return [r for r in pool if identity(r) == identity(pool[-1])][-BASELINE_ROWS:]


def check(row: Dict[str, Any], rows: List[Dict[str, Any]]) -> int:
    """Regressions of ``row`` against the median of its baseline rows."""
    base = baseline(row, rows)
    if not base:
        print("check: no earlier row with the same seed and seconds")
        return 0
    commit, dirty = identity(base[-1])
    print(f"check: against {commit[:12]}{' (dirty)' if dirty else ''}, "
          f"median of {len(base)} row(s) up to {base[-1]['time']}")
    regressions = 0
    bounds = {m.name: m for m in END_TO_END}
    for name, now in row["workloads"].items():
        for kind in ("e2e", "layers"):
            for metric, value in now.get(kind, {}).items():
                olds = [r["workloads"].get(name, {}).get(kind, {}).get(metric) for r in base]
                olds = [o["value"] for o in olds if o]
                old = statistics.median(olds) if olds else 0
                if not old:
                    continue
                change = value["value"] / old - 1
                spec = bounds.get(metric)
                if spec is not None:
                    worse = change if spec.better == "lower" else -change
                    if worse > spec.bound:
                        regressions += 1
                        print(f"REGRESSION {name} {metric}: {change:+.1%} "
                              f"(bound {spec.bound:.0%})")
                elif abs(change) > 0.10:
                    print(f"info {name} {metric}: {change:+.1%}")
    print(f"check: {regressions} regression(s)")
    return regressions


# ----------------------------------------------------------------------
# command line
# ----------------------------------------------------------------------
def print_metrics(name: str, metrics: Dict[str, Dict[str, float]]) -> None:
    for metric, s in metrics.items():
        spread = (f"  (median of passes: q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, n {s['n']})"
                  if s["n"] > 1 else "")
        print(f"{name:<14} {metric:<36} {s['value']:>14.6g} {UNITS[metric]:<6}{spread}")


def main(argv: Optional[List[str]] = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program under test ({SRC / 'repro'}) is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(WORKLOADS),
                        help="run one workload and print its result as the last line")
    parser.add_argument("--seed", type=int, default=0, help="input relabelling seed")
    parser.add_argument("--seconds", type=float, default=18.0,
                        help="measuring time per workload and mode")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="1: per-layer metrics from a traced run; 0: end-to-end "
                             "(default with --workload; without it, both)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: one second, one pass, one CLI run, no history")
    parser.add_argument("--check", action="store_true",
                        help="compare the new history row with its baseline rows")
    parser.add_argument("--history", type=Path, default=HISTORY,
                        help="history file (default: perfbench/BENCH_history.jsonl)")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.quick else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [bool(args.trace)] if args.trace is not None or args.workload else [False, True]

    results: Dict[str, Dict[str, Any]] = {}
    attempted = failed = 0
    for name in names:
        results[name] = {"attempted": 0, "failed": 0}
        for trace in modes:
            outcome = measure(WORKLOADS[name], args.seed, seconds, trace, args.quick)
            results[name]["layers" if trace else "e2e"] = outcome["metrics"]
            for key in ("attempted", "failed"):
                results[name][key] += outcome[key]
            print_metrics(name, outcome["metrics"])
        attempted += results[name]["attempted"]
        failed += results[name]["failed"]
    if args.workload:
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": UNITS[k]}
                        for k, v in outcome["metrics"].items()},
        }))
        return 0 if failed == 0 else 1
    print(f"answers: {attempted} checked, {failed} wrong")
    regressions = 0
    # a run with wrong answers measured something else: it is no baseline
    if not args.quick and len(modes) == 2 and failed == 0:
        rows = ([json.loads(line) for line in args.history.read_text().splitlines() if line]
                if args.history.exists() else [])
        row = history_row(args.seed, seconds, results)
        with open(args.history, "a") as handle:
            handle.write(json.dumps(row) + "\n")
        if args.check:
            regressions = check(row, rows)
    return 0 if failed == 0 and regressions == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
