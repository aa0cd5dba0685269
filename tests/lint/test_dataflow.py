"""Unit tests for the interprocedural dataflow engine: CFG shapes
(exception edges, finally duplication, with-exit nodes), closure
capture, call resolution, function summaries and the content-hash
summary cache."""

from __future__ import annotations

import ast
import json
import textwrap

from repro.lint.dataflow import cfg as cfgmod
from repro.lint.dataflow.callgraph import DataflowProject, module_name_of
from repro.lint.dataflow.cfg import build_cfg
from repro.lint.dataflow.scopes import closure_captured_names
from repro.lint.dataflow.summaries import (
    SummaryCache,
    compute_summaries,
    file_hash,
    load_or_compute,
)


def func_of(source: str, name: str = "f") -> ast.FunctionDef:
    tree = ast.parse(textwrap.dedent(source))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name:
                return node
    raise AssertionError(f"no function {name!r} in fixture")


def reachable_from(cfg, start):
    seen = set()
    stack = [start]
    while stack:
        node = stack.pop()
        if node.index in seen:
            continue
        seen.add(node.index)
        for succ, _kind in cfg.successors(node):
            stack.append(succ)
    return seen


def exception_successors(cfg, node):
    return [
        succ for succ, kind in cfg.successors(node) if kind == cfgmod.EDGE_EXCEPTION
    ]


# ----------------------------------------------------------------------
# control-flow graphs
# ----------------------------------------------------------------------
class TestCfg:
    def test_except_exception_leaves_residual_interrupt_edge(self):
        cfg = build_cfg(
            func_of(
                """
                def f():
                    try:
                        helper()
                    except Exception:
                        cleanup()
                """
            )
        )
        (call_node,) = cfg.stmt_nodes(4)
        targets = exception_successors(cfg, call_node)
        assert any(n.kind == cfgmod.HANDLER for n in targets)
        # a KeyboardInterrupt is not caught: the raise still escapes
        assert cfg.exit_raise in targets

    def test_except_base_exception_terminates_propagation(self):
        cfg = build_cfg(
            func_of(
                """
                def f():
                    try:
                        helper()
                    except BaseException:
                        cleanup()
                """
            )
        )
        (call_node,) = cfg.stmt_nodes(4)
        targets = exception_successors(cfg, call_node)
        assert cfg.exit_raise not in targets
        assert {n.kind for n in targets} == {cfgmod.HANDLER}

    def test_returns_route_through_the_finally_copy(self):
        cfg = build_cfg(
            func_of(
                """
                def f():
                    try:
                        return helper()
                    except Exception:
                        return None
                    finally:
                        cleanup()
                """
            )
        )
        for line in (4, 6):  # return in the body and return in the handler
            (ret,) = cfg.stmt_nodes(line)
            normals = [
                succ
                for succ, kind in cfg.successors(ret)
                if kind == cfgmod.EDGE_NORMAL
            ]
            assert cfg.exit_normal not in normals
            assert cfg.exit_normal.index in reachable_from(cfg, ret)
        # the finally body is duplicated per continuation (return + raise)
        assert len(cfg.stmt_nodes(8)) >= 2

    def test_with_block_gets_synthetic_exit_nodes(self):
        cfg = build_cfg(
            func_of(
                """
                def f(seg):
                    with seg:
                        helper()
                """
            )
        )
        assert any(n.kind == cfgmod.WITH_EXIT for n in cfg.nodes)
        (call_node,) = cfg.stmt_nodes(4)
        # __exit__ runs on the exceptional continuation too
        assert any(
            n.kind == cfgmod.WITH_EXIT
            for n in exception_successors(cfg, call_node)
        )

    def test_while_true_has_no_false_normal_exit(self):
        cfg = build_cfg(
            func_of(
                """
                def f():
                    while True:
                        helper()
                """
            )
        )
        reached = reachable_from(cfg, cfg.entry)
        assert cfg.exit_normal.index not in reached
        assert cfg.exit_raise.index in reached


# ----------------------------------------------------------------------
# scopes
# ----------------------------------------------------------------------
class TestScopes:
    def test_closure_captured_names_sees_directly_nested_defs(self):
        func = func_of(
            """
            def f():
                seg = alloc()
                other = 1

                def release():
                    seg.close()

                return release, other
            """
        )
        captured = closure_captured_names(func)
        assert "seg" in captured
        assert "other" not in captured


# ----------------------------------------------------------------------
# call graph
# ----------------------------------------------------------------------
STORE_SRC = """
class Store:
    def open(self):
        return self._prepare()

    def _prepare(self):
        return 1


def make_store():
    return Store()
"""


def first_call(func_node: ast.AST) -> ast.Call:
    return next(n for n in ast.walk(func_node) if isinstance(n, ast.Call))


class TestCallGraph:
    def test_module_name_of(self):
        assert module_name_of("src/repro/core/shm.py") == "repro.core.shm"
        assert module_name_of("src/repro/graph/__init__.py") == "repro.graph"

    def test_resolves_self_method(self):
        project = DataflowProject()
        info = project.add_module("src/repro/core/a.py", STORE_SRC)
        caller = info.functions["Store.open"]
        callee = project.resolve_callable(
            info, caller, first_call(caller.node).func
        )
        assert callee is not None
        assert callee.qualname == "Store._prepare"

    def test_resolves_across_modules_through_imports(self):
        project = DataflowProject()
        project.add_module("src/repro/core/a.py", STORE_SRC)
        b = project.add_module(
            "src/repro/core/b.py",
            "from repro.core.a import make_store\n\n\n"
            "def g():\n    return make_store()\n",
        )
        caller = b.functions["g"]
        callee = project.resolve_callable(b, caller, first_call(caller.node).func)
        assert callee is not None
        assert (callee.relpath, callee.qualname) == (
            "src/repro/core/a.py",
            "make_store",
        )

    def test_syntax_error_module_is_skipped(self):
        project = DataflowProject()
        assert project.add_module("src/repro/core/bad.py", "def f(:\n") is None
        assert "src/repro/core/bad.py" not in project.modules


# ----------------------------------------------------------------------
# summaries
# ----------------------------------------------------------------------
SHM_REL = "src/repro/core/shm.py"
SHM_SRC = textwrap.dedent(
    """
    from multiprocessing.shared_memory import SharedMemory


    def _open(size):
        seg = SharedMemory("scratch", True, size)
        return seg


    def open_public(size):
        return _open(size)


    def discard(seg):
        seg.unlink()
    """
)


def summarized(source: str, relpath: str = SHM_REL) -> DataflowProject:
    project = DataflowProject()
    project.add_module(relpath, textwrap.dedent(source))
    compute_summaries(project)
    return project


class TestSummaries:
    def test_resource_returns_composes_through_helpers(self):
        project = summarized(SHM_SRC)
        assert project.summaries[(SHM_REL, "_open")].resource_returns == "created"
        assert (
            project.summaries[(SHM_REL, "open_public")].resource_returns
            == "created"
        )

    def test_unlink_parameter_effect(self):
        project = summarized(SHM_SRC)
        assert project.summaries[(SHM_REL, "discard")].may_unlink_params == (0,)

    def test_commit_and_mutation_summaries(self):
        rel = "src/repro/graph/dynamic.py"
        project = summarized(
            """
            class DynamicGraph:
                def _commit(self):
                    self._version += 1
                    self._log.append(("touch",))

                def _wipe(self, u):
                    self.adj[u].clear()

                def clear_vertex(self, u):
                    self._wipe(u)
                    self._commit()
            """,
            relpath=rel,
        )
        assert project.summaries[(rel, "DynamicGraph._commit")].is_commit
        wipe = project.summaries[(rel, "DynamicGraph._wipe")]
        assert wipe.mutates and not wipe.always_commits
        clear = project.summaries[(rel, "DynamicGraph.clear_vertex")]
        assert clear.always_commits and not clear.mutates


# ----------------------------------------------------------------------
# summary cache
# ----------------------------------------------------------------------
def fresh_project(source: str = SHM_SRC) -> DataflowProject:
    project = DataflowProject()
    project.add_module(SHM_REL, source)
    return project


class TestSummaryCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache_path = tmp_path / ".lint-cache.json"
        first = fresh_project()
        load_or_compute(first, cache_path)
        assert (first.cache_hits, first.cache_misses) == (0, 1)
        assert cache_path.is_file()
        second = fresh_project()
        load_or_compute(second, cache_path)
        assert (second.cache_hits, second.cache_misses) == (1, 0)
        assert second.summaries == first.summaries

    def test_content_drift_invalidates(self, tmp_path):
        cache_path = tmp_path / ".lint-cache.json"
        load_or_compute(fresh_project(), cache_path)
        drifted = fresh_project(SHM_SRC + "\n\nEXTRA = 1\n")
        load_or_compute(drifted, cache_path)
        assert (drifted.cache_hits, drifted.cache_misses) == (0, 1)

    def test_engine_version_drift_invalidates(self, tmp_path):
        cache_path = tmp_path / ".lint-cache.json"
        load_or_compute(fresh_project(), cache_path)
        data = json.loads(cache_path.read_text())
        data["engine"] = "0.0"
        cache_path.write_text(json.dumps(data))
        cache = SummaryCache(cache_path)
        assert cache.load_matching({SHM_REL: file_hash(SHM_SRC)}) is None

    def test_cache_layout_drift_invalidates(self, tmp_path):
        """A cache written under the layout with taint summaries
        (``cache_version`` 1) is recomputed, not read."""
        cache_path = tmp_path / ".lint-cache.json"
        load_or_compute(fresh_project(), cache_path)
        data = json.loads(cache_path.read_text())
        assert data["cache_version"] == 2
        data["cache_version"] = 1
        cache_path.write_text(json.dumps(data))
        cache = SummaryCache(cache_path)
        assert cache.load_matching({SHM_REL: file_hash(SHM_SRC)}) is None

    def test_file_set_drift_invalidates(self, tmp_path):
        cache_path = tmp_path / ".lint-cache.json"
        load_or_compute(fresh_project(), cache_path)
        cache = SummaryCache(cache_path)
        grown = {
            SHM_REL: file_hash(SHM_SRC),
            "src/repro/core/extra.py": "0" * 64,
        }
        assert cache.load_matching(grown) is None

    def test_corrupt_cache_is_a_miss(self, tmp_path):
        cache_path = tmp_path / ".lint-cache.json"
        cache_path.write_text("{not json")
        cache = SummaryCache(cache_path)
        assert cache.load_matching({SHM_REL: file_hash(SHM_SRC)}) is None

    def test_no_cache_path_still_computes(self):
        project = fresh_project()
        load_or_compute(project, None)
        assert project.summaries
        assert project.cache_misses == 1
