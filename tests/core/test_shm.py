"""Differential and lifecycle tests for the shared-memory graph store.

Three backings of the *same* data graph must be observationally
identical: the in-process :class:`Graph`, the shared-memory
:class:`SharedGraphStore`, and the mmap'd ``cfl-match ingest`` file.
The sweep runs every ``repro.testing`` fuzz scenario through all three
— embeddings, enumeration order, and every ``SearchStats`` counter
bit-identical — sequentially and at ``workers=4`` under both start
methods.

The lifecycle half asserts the deterministic segment discipline: pool
shutdown, worker errors, mid-stream cancellation, KeyboardInterrupt,
and even a SIGKILLed attacher leave zero orphaned ``/dev/shm``
segments and zero ``resource_tracker`` warnings.
"""

import glob
import multiprocessing
import os
import signal
import subprocess
import sys
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro.core.parallel
from repro.core import CFLMatch
from repro.core.parallel import (
    MatcherPool,
    parallel_count,
    parallel_search,
    parallel_search_iter,
)
from repro.core.shm import (
    GRAPH_SECTION_NAMES,
    KIND_GRAPH,
    MAGIC_BYTES,
    PlanSegment,
    SEGMENT_PREFIX,
    SharedGraph,
    SharedGraphStore,
    adjacency_csr,
    attach_graph_store,
    attach_plan_segment,
    graph_sections,
    open_graph_file,
    pack_segment,
    read_segment,
    section_sizes,
    segment_nbytes,
)
from repro.core.stats import SearchStats, aggregate_stage_stats
from repro.graph import Graph, load_graph, save_graph
from repro.graph.dynamic import DynamicGraph
from repro.graph.graph import GraphError
from repro.graph.ingest import ingest_graph, load_graph_csr, write_graph_csr
from repro.testing import SCENARIOS, WorkloadSpec, generate_case, generate_cases
from repro.workloads.paper_graphs import figure1_example
from tests.conftest import random_instance

FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(not FORK, reason="fork start method unavailable")
SHM_DIR = Path("/dev/shm")
REPO_ROOT = Path(__file__).resolve().parents[2]
SWEEP_SEED = 2016
#: spawn pools cost ~1s each on small machines, so the spawn sweep picks
#: one backing per scenario (rotating) instead of the full cross product;
#: CI's smoke job runs the full fork x spawn matrix on top.
SPAWN_SCENARIOS = ("dense", "nec-heavy", "twins")


def _segments() -> set:
    if not SHM_DIR.is_dir():  # pragma: no cover - non-tmpfs platforms
        return set()
    return set(glob.glob(str(SHM_DIR / f"{SEGMENT_PREFIX}*")))


def _dense_case():
    """A fuzz case with several root candidates, so the parallel engine
    actually dispatches chunks instead of falling back inline (the
    figure-1 example has exactly one root and never exercises a pool)."""
    return generate_case(11, 1, WorkloadSpec(scenarios=("dense",)))


def _boom(args):
    raise RuntimeError("injected worker failure")


@pytest.fixture(autouse=True)
def no_leaked_segments():
    """Every test in this module must leave ``/dev/shm`` as it found it."""
    before = _segments()
    yield
    leaked = _segments() - before
    assert not leaked, f"leaked shared-memory segments: {sorted(leaked)}"


@contextmanager
def _variants(data: Graph, tmp_path: Path):
    """The three observationally-equivalent backings of ``data``."""
    csr_path = tmp_path / "data.csr"
    write_graph_csr(data, csr_path)
    with SharedGraphStore.create(data) as store:
        file_store = open_graph_file(csr_path)
        try:
            yield [("inproc", data), ("shm", store.graph), ("file", file_store.graph)]
        finally:
            file_store.close()


def _sequential_run(graph: Graph, query: Graph):
    """(embeddings in order, counters, count) for one backing.

    Counters fold per-stage stats exactly like the worker tasks do, so
    they are directly comparable with parallel-run aggregates."""
    matcher = CFLMatch(graph)
    plan = matcher.prepare(query, use_cache=False)
    stats = SearchStats()
    stage_stats: dict = {}
    embeddings = list(
        matcher.search(query, prepared=plan, stats=stats, stage_stats=stage_stats)
    )
    aggregate_stage_stats(stage_stats, into=stats)
    return embeddings, stats.to_dict(), matcher.count(query)


class TestDifferentialSequential:
    """Every fuzz scenario, all three backings, exact order + counters."""

    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_three_backings_bit_identical(self, scenario, tmp_path):
        for case in generate_cases(SWEEP_SEED, 3, WorkloadSpec(scenarios=(scenario,))):
            if scenario == "disconnected-query":
                # prepare() rejects these identically on every backing
                with _variants(case.data, tmp_path) as variants:
                    for name, graph in variants:
                        with pytest.raises(GraphError):
                            CFLMatch(graph).prepare(case.query)
                continue
            baseline = None
            with _variants(case.data, tmp_path) as variants:
                for name, graph in variants:
                    got = _sequential_run(graph, case.query)
                    if baseline is None:
                        baseline = got
                    else:
                        assert got == baseline, (name, case.describe())

    def test_plan_segment_round_trip_matches(self):
        """Search through an attached plan segment must replay the exact
        embeddings and counters of the plan it encodes."""
        for case in generate_cases(
            SWEEP_SEED, 4, WorkloadSpec(scenarios=("dense", "nec-heavy"))
        ):
            with SharedGraphStore.create(case.data) as store:
                matcher = CFLMatch(store.graph)
                plan = matcher.prepare(case.query, use_cache=False)
                base_stats = SearchStats()
                base = list(matcher.search(case.query, prepared=plan, stats=base_stats))
                segment = PlanSegment.create(plan)
                try:
                    attacher = CFLMatch(store.graph)
                    decoded, attached = attach_plan_segment(attacher, segment.name)
                    got_stats = SearchStats()
                    got = list(
                        attacher.search(decoded.query, prepared=decoded, stats=got_stats)
                    )
                    assert got == base, case.describe()
                    assert got_stats.to_dict() == base_stats.to_dict()
                    assert decoded.phase_times["segment_attach"] > 0.0
                    attached.close()
                finally:
                    segment.unlink()
                    segment.close()


class TestDifferentialParallel:
    """workers=4 across the backings: multiset + exact counter equality
    (enumeration work is partitioned by root candidate, so worker-merged
    counters equal the sequential run's when no limit truncates)."""

    @needs_fork
    @pytest.mark.parametrize("scenario", sorted(set(SCENARIOS) - {"disconnected-query"}))
    def test_fork_matches_sequential_on_all_backings(self, scenario, tmp_path):
        case = generate_case(SWEEP_SEED, 1, WorkloadSpec(scenarios=(scenario,)))
        base_emb, base_counters, base_count = _sequential_run(case.data, case.query)
        with _variants(case.data, tmp_path) as variants:
            for name, graph in variants:
                stats = SearchStats()
                got = parallel_search(
                    graph, case.query, workers=4, start_method="fork", stats=stats
                )
                assert Counter(got) == Counter(base_emb), (name, case.describe())
                assert stats.to_dict() == base_counters, (name, case.describe())
                assert (
                    parallel_count(graph, case.query, workers=4, start_method="fork")
                    == base_count
                ), (name, case.describe())

    @pytest.mark.parametrize(
        "scenario,backing", zip(SPAWN_SCENARIOS, ("inproc", "shm", "file"))
    )
    def test_spawn_matches_sequential(self, scenario, backing, tmp_path):
        """Spawn workers inherit nothing: they attach the store and the
        plan segment by name, making this the zero-copy path's real
        differential."""
        case = generate_case(SWEEP_SEED, 1, WorkloadSpec(scenarios=(scenario,)))
        base_emb, base_counters, _ = _sequential_run(case.data, case.query)
        with _variants(case.data, tmp_path) as variants:
            graph = dict(variants)[backing]
            stats = SearchStats()
            got = parallel_search(
                graph, case.query, workers=4, start_method="spawn", stats=stats
            )
            assert Counter(got) == Counter(base_emb), case.describe()
            assert stats.to_dict() == base_counters, case.describe()

    @needs_fork
    def test_matcher_pool_differential_both_methods(self):
        case = _dense_case()
        base_emb, base_counters, base_count = _sequential_run(case.data, case.query)
        for method in ("fork", "spawn"):
            with MatcherPool(case.data, workers=4, start_method=method) as pool:
                stats = SearchStats()
                got = pool.search(case.query, stats=stats)
                assert Counter(got) == Counter(base_emb), method
                assert stats.to_dict() == base_counters, method
                assert pool.count(case.query) == base_count, method


class TestSharedGraphStore:
    def test_graph_equality_and_signature(self, rng):
        for _ in range(5):
            data, _ = random_instance(rng)
            with SharedGraphStore.create(data) as store:
                shared = store.graph
                assert shared == data and data == shared
                assert shared.signature() == data.signature()
                assert shared.materialize() == data
                assert list(shared.labels) == list(data.labels)
                assert [list(r) for r in shared.adj] == [list(r) for r in data.adj]
                assert set(shared.label_index()) == set(data.label_index())
                for v in data.vertices():
                    assert shared.nlf(v) == data.nlf(v)
                    assert shared.mnd(v) == data.mnd(v)

    def test_adjacency_sections_equal_in_process_csr(self, rng):
        """The segment's adjacency sections are the in-process lowering
        of the graph's rows byte for byte, also after an edge delta."""
        for _ in range(5):
            data, _ = random_instance(rng)
            dynamic = DynamicGraph.from_graph(data)
            u, v = rng.sample(range(dynamic.num_vertices), 2)
            if dynamic.has_edge(u, v):
                dynamic.remove_edge(u, v)
            else:
                dynamic.add_edge(u, v)
            for graph in (data, dynamic):
                indptr, flat = adjacency_csr(graph)
                sections = graph_sections(graph)
                assert bytes(sections[GRAPH_SECTION_NAMES.index("adj_indptr")]) \
                    == bytes(indptr)
                assert bytes(sections[GRAPH_SECTION_NAMES.index("adj_flat")]) \
                    == bytes(flat)
                with SharedGraphStore.create(graph) as store:
                    shared_indptr, shared_flat = adjacency_csr(store.graph)
                    assert bytes(shared_indptr) == bytes(indptr)
                    assert bytes(shared_flat) == bytes(flat)
                    assert [list(r) for r in store.graph.adj] == \
                        [list(r) for r in graph.adj]

    def test_rows_are_read_only_zero_copy_views(self):
        ex = figure1_example(6, 6)
        with SharedGraphStore.create(ex.data) as store:
            row = store.graph.adj[0]
            assert isinstance(row, memoryview) and row.readonly
            assert store.graph.adj[0] is row  # cached, not re-sliced
            with pytest.raises(TypeError):
                row[0] = 99

    def test_kernel_plans_borrow_the_shared_rows(self, tmp_path):
        """A kernel plan over a segment- or file-backed graph filters
        against that graph's own neighbor sets, also when decoded from a
        plan segment."""
        case = generate_case(SWEEP_SEED, 0, WorkloadSpec(scenarios=("dense",)))
        path = tmp_path / "data.csr"
        write_graph_csr(case.data, path)
        mapped = load_graph_csr(path)
        assert isinstance(mapped, SharedGraph)
        kernel = CFLMatch(mapped).prepare(case.query).kernel
        assert kernel.adj_sets is mapped._adj_sets
        with SharedGraphStore.create(case.data) as store:
            plan = CFLMatch(store.graph).prepare(case.query)
            assert plan.kernel.adj_sets is store.graph._adj_sets
            segment = PlanSegment.create(plan)
            try:
                attacher = CFLMatch(store.graph)
                decoded, attached = attach_plan_segment(attacher, segment.name)
                assert decoded.kernel.adj_sets is store.graph._adj_sets
                attached.close()
            finally:
                segment.unlink()
                segment.close()

    def test_attach_by_name_and_unlink_semantics(self):
        ex = figure1_example(5, 5)
        store = SharedGraphStore.create(ex.data)
        try:
            handle = store.worker_handle()
            assert handle is not None and handle[0] == "shm"
            attached = attach_graph_store(handle)
            assert attached.graph == store.graph
            store.unlink()
            # POSIX: the attached mapping stays valid after unlink...
            assert attached.graph.num_vertices == ex.data.num_vertices
            attached.close()
            # ...but new attaches fail deterministically.
            with pytest.raises(FileNotFoundError):
                attach_graph_store(handle)
        finally:
            store.unlink()
            store.close()

    def test_attacher_cannot_unlink(self):
        ex = figure1_example(4, 4)
        with SharedGraphStore.create(ex.data) as store:
            attached = attach_graph_store(store.worker_handle())
            attached.unlink()  # non-owner: must be a no-op
            attached.close()
            again = attach_graph_store(store.worker_handle())
            assert again.graph == store.graph
            again.close()

    def test_create_with_explicit_name(self):
        ex = figure1_example(3, 3)
        name = f"{SEGMENT_PREFIX}explicit-test"
        with SharedGraphStore.create(ex.data, name=name) as store:
            assert store.name == name
            attached = attach_graph_store(("shm", name))
            assert attached.graph == store.graph
            attached.close()


class TestSegmentLayout:
    def test_pack_read_round_trip(self):
        sections = [array("i", [1, 2, 3]), array("i"), array("i", [7])]
        buffer = bytearray(segment_nbytes(sections))
        pack_segment(buffer, KIND_GRAPH, sections)
        kind, views = read_segment(buffer)
        assert kind == KIND_GRAPH
        assert [list(v) for v in views] == [[1, 2, 3], [], [7]]

    def test_section_sizes_account_for_every_byte(self):
        ex = figure1_example(8, 8)
        sections = graph_sections(ex.data)
        buffer = bytearray(segment_nbytes(sections))
        pack_segment(buffer, KIND_GRAPH, sections)
        sizes = section_sizes(buffer)
        assert set(sizes) == {"header", *GRAPH_SECTION_NAMES}
        assert sum(sizes.values()) == len(buffer)

    def test_bad_magic_and_truncation_rejected(self):
        with pytest.raises(ValueError, match="magic"):
            read_segment(b"\x00" * 32)
        sections = [array("i", [1, 2, 3])]
        buffer = bytearray(segment_nbytes(sections))
        pack_segment(buffer, KIND_GRAPH, sections)
        with pytest.raises(ValueError, match="too small"):
            read_segment(bytes(buffer[:12]))
        with pytest.raises(ValueError, match="out of bounds"):
            read_segment(bytes(buffer[:-4]))

    def test_undersized_buffer_rejected(self):
        sections = [array("i", [1, 2, 3])]
        with pytest.raises(ValueError, match="words"):
            pack_segment(bytearray(8), KIND_GRAPH, sections)


class TestIngest:
    def test_round_trip_equality(self, tmp_path, rng):
        for index in range(5):
            data, _ = random_instance(rng)
            path = tmp_path / f"g{index}.csr"
            report = write_graph_csr(data, path)
            loaded = load_graph_csr(path)
            assert loaded == data and data == loaded
            assert loaded.signature() == data.signature()
            assert list(loaded.labels) == list(data.labels)
            assert report.total_bytes == path.stat().st_size
            assert sum(report.section_bytes.values()) == report.total_bytes

    def test_load_graph_sniffs_binary_by_magic(self, tmp_path):
        ex = figure1_example(7, 7)
        text_path = tmp_path / "data.graph"
        save_graph(ex.data, text_path)
        # extension is deliberately text-like: detection is content-based
        bin_path = tmp_path / "data2.graph"
        ingest_graph(text_path, bin_path)
        assert bin_path.read_bytes()[:4] == MAGIC_BYTES
        loaded = load_graph(bin_path)
        assert isinstance(loaded, SharedGraph)
        assert loaded == load_graph(text_path)

    def test_ingested_file_reingestable(self, tmp_path):
        ex = figure1_example(5, 5)
        first = tmp_path / "a.csr"
        second = tmp_path / "b.csr"
        write_graph_csr(ex.data, first)
        ingest_graph(first, second)
        assert first.read_bytes() == second.read_bytes()

    def test_wrong_kind_rejected(self, tmp_path):
        ex = figure1_example(4, 4)
        matcher = CFLMatch(ex.data)
        plan = matcher.prepare(ex.query)
        segment = PlanSegment.create(plan)
        try:
            bogus = tmp_path / "plan.csr"
            bogus.write_bytes(bytes(segment.buffer))
            with pytest.raises(GraphError, match="not an ingested graph"):
                open_graph_file(bogus)
        finally:
            segment.unlink()
            segment.close()

    def test_report_renders_size_table(self, tmp_path):
        ex = figure1_example(6, 6)
        report = write_graph_csr(ex.data, tmp_path / "g.csr")
        rendered = report.render()
        for name in GRAPH_SECTION_NAMES:
            assert name in rendered
        assert str(report.total_bytes) in rendered

    def test_cli_ingest_and_count(self, tmp_path, capsys):
        from repro.cli import main

        ex = figure1_example(10, 10)
        text_path = tmp_path / "data.graph"
        query_path = tmp_path / "query.graph"
        csr_path = tmp_path / "data.csr"
        save_graph(ex.data, text_path)
        save_graph(ex.query, query_path)
        assert main(["ingest", str(text_path), str(csr_path)]) == 0
        out = capsys.readouterr().out
        assert "adj_flat" in out
        assert main(["count", "--data", str(csr_path), "--query", str(query_path)]) == 0
        assert capsys.readouterr().out.startswith("10 embedding(s)")


class TestSegmentLifecycle:
    def test_pool_shutdown_unlinks_everything(self):
        case = _dense_case()
        expected = CFLMatch(case.data).count(case.query)
        for method in ("fork", "spawn") if FORK else ("spawn",):
            before = _segments()
            pool = MatcherPool(case.data, workers=2, start_method=method)
            assert pool.count(case.query) == expected
            if SHM_DIR.is_dir():
                # the query's plan segment lives here right now, and under
                # spawn the graph store too (fork workers inherit ``data``)
                live = 1 if method == "fork" else 2
                assert len(_segments() - before) == live, method
            pool.close()
            assert _segments() == before, method

    def test_pool_does_not_unlink_foreign_store(self):
        case = _dense_case()
        expected = CFLMatch(case.data).count(case.query)
        with SharedGraphStore.create(case.data) as store:
            with MatcherPool(store.graph, workers=2) as pool:
                assert pool.count(case.query) == expected
            # pool reused the caller's store: still attachable after close
            attached = attach_graph_store(store.worker_handle())
            assert attached.graph == store.graph
            attached.close()

    @needs_fork
    def test_worker_error_propagates_and_cleans_up(self, monkeypatch):
        case = _dense_case()
        before = _segments()
        # fork workers inherit the patched module, so every chunk raises
        monkeypatch.setattr(repro.core.parallel, "_pool_count_task", _boom)
        with pytest.raises(RuntimeError, match="injected worker failure"):
            with MatcherPool(case.data, workers=2, start_method="fork") as pool:
                pool.count(case.query)
        assert _segments() == before

    def test_midstream_abandon_releases_segments(self):
        case = _dense_case()
        before = _segments()
        stream = parallel_search_iter(case.data, case.query, workers=2)
        assert isinstance(next(stream), tuple)
        stream.close()  # abandon mid-enumeration
        assert _segments() == before

    def test_keyboard_interrupt_mid_stream_releases_segments(self):
        case = _dense_case()
        before = _segments()
        stream = parallel_search_iter(case.data, case.query, workers=2)
        next(stream)
        with pytest.raises(KeyboardInterrupt):
            stream.throw(KeyboardInterrupt)
        assert _segments() == before

    def test_matcher_pool_midstream_abandon_stays_usable(self):
        case = _dense_case()
        expected = CFLMatch(case.data).count(case.query)
        assert expected > 2
        with MatcherPool(case.data, workers=2) as pool:
            got = list(pool.search_iter(case.query, limit=2))
            assert len(got) == 2
            assert pool.count(case.query) == expected  # cancel cleared per query

    def test_plan_segment_lru_eviction_unlinks(self):
        """Distinct queries beyond the plan-cache capacity must not
        accumulate plan segments."""
        case = _dense_case()
        n = case.query.num_vertices
        rotate = [(i + 1) % n for i in range(n)]
        twisted = Graph(
            [case.query.label(rotate.index(v)) for v in range(n)],
            [(rotate[u], rotate[v]) for u, v in case.query.edges()],
        )
        assert twisted.signature() != case.query.signature()
        expected = CFLMatch(case.data).count(case.query)
        before = _segments()
        with MatcherPool(case.data, workers=2, plan_cache_size=1) as pool:
            assert pool.count(case.query) == expected
            assert pool.count(twisted) == expected  # isomorphic relabeling
            if SHM_DIR.is_dir():
                # exactly one live plan segment (first one evicted), plus
                # the graph store when the workers were spawned
                store = 0 if pool.start_method == "fork" else 1
                assert len(_segments() - before) == 1 + store
        assert _segments() == before

    @pytest.mark.skipif(not SHM_DIR.is_dir(), reason="/dev/shm unavailable")
    def test_sigkilled_attacher_leaves_no_orphans(self):
        """A hard-killed attacher must not leak: attachers never own the
        name, so the creator's unlink still removes it."""
        ex = figure1_example(10, 10)
        store = SharedGraphStore.create(ex.data)
        try:
            matcher = CFLMatch(store.graph)
            plan = matcher.prepare(ex.query)
            segment = PlanSegment.create(plan)
            try:
                code = (
                    "import time\n"
                    "from repro.core import CFLMatch\n"
                    "from repro.core.shm import attach_graph_store, attach_plan_segment\n"
                    f"store = attach_graph_store(('shm', {store.name!r}))\n"
                    "matcher = CFLMatch(store.graph)\n"
                    f"plan, seg = attach_plan_segment(matcher, {segment.name!r})\n"
                    "print('attached', flush=True)\n"
                    "time.sleep(30)\n"
                )
                proc = subprocess.Popen(
                    [sys.executable, "-c", code],
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                    env={**os.environ, "PYTHONPATH": "src"},
                    cwd=str(REPO_ROOT),
                    text=True,
                )
                assert proc.stdout is not None
                assert proc.stdout.readline().strip() == "attached"
                proc.send_signal(signal.SIGKILL)
                proc.wait(timeout=30)
            finally:
                segment.unlink()
                segment.close()
        finally:
            store.unlink()
            store.close()

    @pytest.mark.skipif(not SHM_DIR.is_dir(), reason="/dev/shm unavailable")
    def test_unclosed_spawn_pool_unlinks_at_exit(self):
        """A spawn pool still open when the interpreter exits unlinks its
        graph store and plan segment, with no stderr noise."""
        code = (
            "import glob, os\n"
            "from repro.core.parallel import MatcherPool\n"
            "from repro.core.shm import SEGMENT_PREFIX\n"
            "from repro.testing import WorkloadSpec, generate_case\n"
            "case = generate_case(11, 1, WorkloadSpec(scenarios=('dense',)))\n"
            "pool = MatcherPool(case.data, workers=2, start_method='spawn')\n"
            "pool.count(case.query)\n"
            "mine = glob.glob(f'/dev/shm/{SEGMENT_PREFIX}{os.getpid():x}-*')\n"
            "print(os.getpid(), len(mine))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(REPO_ROOT),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        pid, live = (int(field) for field in result.stdout.split())
        assert live == 2  # the graph store and the plan segment
        assert not glob.glob(str(SHM_DIR / f"{SEGMENT_PREFIX}{pid:x}-*"))

    def test_no_resource_tracker_warnings_in_subprocess(self):
        """A full create/attach/search/close cycle in a fresh interpreter
        must produce *zero* stderr output — no resource_tracker 'leaked
        shared_memory objects' warnings, no KeyError tracebacks from
        double-unregistration, no BufferError finalizer noise."""
        code = (
            "from repro.core.parallel import MatcherPool, parallel_search\n"
            "from repro.testing import WorkloadSpec, generate_case\n"
            "case = generate_case(11, 1, WorkloadSpec(scenarios=('dense',)))\n"
            "expected = len(parallel_search(case.data, case.query, workers=2))\n"
            "with MatcherPool(case.data, workers=2) as pool:\n"
            "    assert pool.count(case.query) <= expected\n"
            "    assert len(pool.search(case.query)) == expected\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=str(REPO_ROOT),
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
