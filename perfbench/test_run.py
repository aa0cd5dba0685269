"""Self-test of the benchmark: ``pytest perfbench/test_run.py``.

Outside the tier-1 suite (``testpaths`` is ``tests``): it runs every
workload once in ``--quick`` mode, both untraced and traced, which takes
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import UNATTRIBUTED, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import repro.core.matcher as matcher  # noqa: E402
from repro.core import CFLMatch  # noqa: E402
from repro.workloads import load_dataset  # noqa: E402
from repro.workloads.queries import QuerySetSpec, generate_query_set  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, result


def test_benchmark_json_declares_the_runner_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in run.END_TO_END
    ]
    assert BENCHMARK["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in run.PER_LAYER
    ]


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_quick_run_prints_every_metric_with_its_unit(name, trace):
    proc, result = bench("--workload", name, "--quick", "--trace", trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace == "0":
        assert all(value > 0 for value in metrics.values()), metrics
    else:
        assert 0 <= metrics["trace.unattributed_frac"] <= 1
        assert (metrics["query_p50_ms"] > 0) == WORKLOADS[name].request_latency
        if name != "dynamic-watch":
            assert metrics["core.cpi_builder.topdown_ms"] > 0


def test_corrupted_expected_answers_count_as_failures():
    workload = WORKLOADS["dense-core"]
    directory = run.prepare_inputs(workload, 0)
    run.expected_answers(workload, 0, directory)
    path = run.expected_path(workload, directory)
    saved = path.read_text()
    corrupted = json.loads(saved)
    corrupted["library"][0] += 1
    corrupted["cli"][0] += 1
    try:
        path.write_text(json.dumps(corrupted))
        proc, result = bench("--workload", "dense-core", "--quick", "--seed", "0", "--trace", "1")
    finally:
        path.write_text(saved)
    assert proc.returncode == 1
    assert not result["correct"]
    # answer 0 of each library pass (one untraced, one traced at least) and
    # of each CLI run (at least one)
    assert 3 <= result["failed"] < result["attempted"]


def test_a_failed_measuring_process_counts_its_requests_as_failed(monkeypatch):
    def crash(*args, **kwargs):
        raise subprocess.CalledProcessError(1, "child.py")

    monkeypatch.setattr(run, "run_child", crash)
    outcome = run.measure(WORKLOADS["dense-core"], 0, 1.0, False, True)
    assert outcome["failed"] == outcome["attempted"] == len(WORKLOADS["dense-core"].indices)


def test_times_are_weighed_by_the_speed_the_probes_saw():
    ref = run.REFERENCE_PROBE_S
    passes = [
        # at the reference speed; then at half of it; then no probe at all
        {"setup_cpu_s": 0.1 + ref, "serve_cpu_s": 1.0 + ref,
         "setup_probes_s": [ref], "serve_probes_s": [ref]},
        {"setup_cpu_s": 0.2 + 2 * ref, "serve_cpu_s": 2.0,
         "setup_probes_s": [2 * ref], "serve_probes_s": []},
        {"setup_cpu_s": 0.1, "serve_cpu_s": 1.0, "setup_probes_s": [], "serve_probes_s": []},
    ]
    setups, serves = run.at_reference_speed(passes)
    assert setups[:2] == pytest.approx([0.1, 0.1])
    assert serves[:2] == pytest.approx([1.0, 1.0])
    # the run's mean speed: (1 + 1 + 0.5) / 3 of the reference
    assert serves[2] == pytest.approx(1.0 * 2.5 / 3)


#: the share by which ``serve_s`` may worsen before ``--check`` flags it
BOUND = next(m.bound for m in run.END_TO_END if m.name == "serve_s")


def _row(commit, dirty, serve_s, e2e=True):
    results = {"serve_s": run.summary([serve_s])}
    return {"commit": commit, "dirty": dirty, "time": "t", "seed": 0, "seconds": 18.0,
            "workloads": {"dense-core": {"e2e" if e2e else "layers": results}}}


def test_a_dirty_run_is_checked_against_the_clean_run_of_its_commit():
    rows = [_row("a", False, 1.0), _row("b", False, 2.0), _row("b", True, 5.0)]
    assert run.baseline(_row("b", True, 2.0), rows) == [rows[1]]
    assert run.check(_row("b", True, 2.0 * (1 + BOUND / 2)), rows) == 0
    assert run.check(_row("b", True, 2.0 * (1 + 2 * BOUND)), rows) == 1


def test_rows_without_end_to_end_results_are_never_a_baseline():
    rows = [_row("a", False, 1.0), _row("b", False, 9.0, e2e=False)]
    assert run.baseline(_row("c", False, 1.0), rows) == [rows[0]]
    assert run.check(_row("c", False, 1 + 2 * BOUND), rows) == 1


def test_the_baseline_is_the_median_of_the_latest_rows_of_one_identity():
    rows = [_row("a", False, serve_s) for serve_s in (9.0, 1.0, 1.3, 1.0)]
    assert run.baseline(_row("b", False, 1.0), rows) == rows[-run.BASELINE_ROWS:]
    assert run.check(_row("b", False, 1 + 0.9 * BOUND), rows) == 0
    assert run.check(_row("b", False, 1 + 1.1 * BOUND), rows) == 1


def test_inputs_that_drift_from_the_pinned_instance_are_refused(monkeypatch, tmp_path):
    workload = WORKLOADS["dynamic-watch"]
    monkeypatch.setattr(workload, "pinned", "0" * 16)
    with pytest.raises(RuntimeError, match="pinned instance"):
        workload.build(0, tmp_path)


def test_traced_self_times_sum_to_their_root():
    data = load_dataset("yeast", scale="small", seed=3)
    queries = generate_query_set(data, QuerySetSpec(8, sparse=True, count=4), seed=3)
    engine = CFLMatch(data)
    search = vars(CFLMatch)["search"]
    tracer = Tracer().install()
    try:
        for query in queries:
            with tracer.root():
                list(engine.search(query))
            with tracer.root():
                engine.count(query)
    finally:
        tracer.remove()
    assert abs(sum(tracer.self_s.values()) - tracer.root_s) <= 1e-9 * tracer.root_s
    assert min(tracer.self_s.values()) > -1e-9
    assert tracer.self_s[UNATTRIBUTED] < tracer.root_s
    for name in ("core.cpi_builder.topdown", "core.kernel.core", "core.leaf_match.leaf",
                 "core.matcher.emit", "core.matcher.count"):
        assert tracer.self_s[name] > 0, name
    assert tracer.counts["core.matcher.plan_cache_hits"] == len(queries)
    assert vars(CFLMatch)["search"] is search


def test_install_fails_loudly_and_restores_when_a_name_is_gone(monkeypatch):
    original = matcher.select_root
    monkeypatch.delattr(matcher, "order_structure")
    with pytest.raises(RuntimeError, match="order_structure"):
        Tracer().install()
    assert matcher.select_root is original


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc, result = bench("--workload", "dense-core", "--seed", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
