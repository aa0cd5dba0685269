"""Fixture tests for the dataflow rules R007-R009: a firing snippet and
a near-miss per behavior, including the seeded KeyboardInterrupt leak
(`except Exception: seg.unlink(); raise`) that a purely intraprocedural
engine cannot distinguish from the safe `except BaseException` form."""

from __future__ import annotations

import textwrap

from repro.lint import lint_source

SHM = "src/repro/core/shm.py"
KERNEL = "src/repro/core/kernel.py"
DYNAMIC = "src/repro/graph/dynamic.py"


def run(source: str, relpath: str, select):
    return lint_source(textwrap.dedent(source), relpath, select=select)


# ----------------------------------------------------------------------
# R007 segment-lifecycle
# ----------------------------------------------------------------------
class TestR007:
    def test_fires_on_interrupt_path_past_except_exception(self):
        # The seeded acceptance bug: unlink() happens in the handler,
        # but a KeyboardInterrupt takes the residual edge past
        # `except Exception` with the segment still created.
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def publish(payload):
                seg = SharedMemory("queue", True, 64)
                try:
                    encode(payload)
                except Exception:
                    seg.unlink()
                    raise
                seg.unlink()
            """,
            SHM,
            ["R007"],
        )
        assert [d.rule for d in diags] == ["R007"]
        assert "exceptional exit path" in diags[0].message

    def test_except_base_exception_is_clean(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def publish(payload):
                seg = SharedMemory("queue", True, 64)
                try:
                    encode(payload)
                except BaseException:
                    seg.unlink()
                    raise
                seg.unlink()
            """,
            SHM,
            ["R007"],
        )
        assert diags == []

    def test_close_without_unlink_fires(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def publish(data):
                seg = SharedMemory("queue", True, 64)
                seg.close()
            """,
            SHM,
            ["R007"],
        )
        assert [d.rule for d in diags] == ["R007"]
        assert "closed but never unlinked" in diags[0].message

    def test_unlink_in_finally_is_clean(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def publish(data):
                seg = SharedMemory("queue", True, 64)
                try:
                    fill(seg.buf, data)
                finally:
                    seg.unlink()
            """,
            SHM,
            ["R007"],
        )
        assert diags == []

    def test_escape_discharges_the_obligation(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def make():
                seg = SharedMemory("queue", True, 64)
                return seg
            """,
            SHM,
            ["R007"],
        )
        assert diags == []

    def test_closure_captured_resources_are_skipped(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def make():
                seg = SharedMemory("queue", True, 64)

                def release():
                    seg.unlink()

                return release
            """,
            SHM,
            ["R007"],
        )
        assert diags == []

    def test_attached_segment_unlink_fires(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def reader(name):
                seg = SharedMemory(name)
                seg.unlink()
            """,
            SHM,
            ["R007"],
        )
        assert [d.rule for d in diags] == ["R007"]
        assert "never be unlinked" in diags[0].message

    def test_attached_segment_close_is_clean(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def reader(name):
                seg = SharedMemory(name)
                try:
                    decode(seg.buf)
                finally:
                    seg.close()
            """,
            SHM,
            ["R007"],
        )
        assert diags == []

    def test_attached_never_closed_fires(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def reader(name):
                seg = SharedMemory(name)
                decode(seg.buf)
            """,
            SHM,
            ["R007"],
        )
        assert [d.rule for d in diags] == ["R007"]
        assert "never closed on a normal exit path" in diags[0].message

    def test_unlink_through_helper_summary_fires_for_attacher(self):
        # interprocedural: _discard's may_unlink_params=(0,) summary
        # propagates the forbidden unlink to the attaching caller
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def _discard(seg):
                seg.unlink()


            def reader(name):
                seg = SharedMemory(name)
                _discard(seg)
                seg.close()
            """,
            SHM,
            ["R007"],
        )
        assert [d.rule for d in diags] == ["R007"]
        assert "never be unlinked" in diags[0].message

    def test_leak_through_creating_helper_fires(self):
        # interprocedural: _open's resource_returns="created" summary
        # makes the caller's binding a tracked creation site
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def _open(size):
                seg = SharedMemory("scratch", True, size)
                return seg


            def broken(size):
                seg = _open(size)
                seg.close()
            """,
            SHM,
            ["R007"],
        )
        assert [d.rule for d in diags] == ["R007"]
        assert "closed but never unlinked" in diags[0].message

    def test_unlink_through_creating_helper_is_clean(self):
        diags = run(
            """
            from multiprocessing.shared_memory import SharedMemory


            def _open(size):
                seg = SharedMemory("scratch", True, size)
                return seg


            def fine(size):
                seg = _open(size)
                seg.unlink()
            """,
            SHM,
            ["R007"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R008 dtype-escape
# ----------------------------------------------------------------------
class TestR008:
    def test_fires_on_numpy_value_into_stats(self):
        diags = run(
            """
            import numpy as np


            def fill(stats, arr):
                stats.nodes = np.sum(arr)
            """,
            KERNEL,
            ["R008"],
        )
        assert [d.rule for d in diags] == ["R008"]
        assert "'nodes'" in diags[0].message

    def test_int_sanitizer_is_clean(self):
        diags = run(
            """
            import numpy as np


            def fill(stats, arr):
                stats.nodes = int(np.sum(arr))
            """,
            KERNEL,
            ["R008"],
        )
        assert diags == []

    def test_fires_on_numpy_value_into_plan(self):
        diags = run(
            """
            import numpy as np


            def pack(plan, arr):
                plan.order = np.argsort(arr)
            """,
            KERNEL,
            ["R008"],
        )
        assert [d.rule for d in diags] == ["R008"]
        assert "plan structure" in diags[0].message

    def test_tolist_sanitizer_is_clean(self):
        diags = run(
            """
            import numpy as np


            def pack(plan, arr):
                plan.order = np.argsort(arr).tolist()
            """,
            KERNEL,
            ["R008"],
        )
        assert diags == []

    def test_fires_on_tainted_yield(self):
        diags = run(
            """
            import numpy as np


            def stream(arr):
                for value in np.nditer(arr):
                    yield value
            """,
            KERNEL,
            ["R008"],
        )
        assert [d.rule for d in diags] == ["R008"]
        assert "yielded" in diags[0].message

    def test_sanitized_yield_is_clean(self):
        diags = run(
            """
            import numpy as np


            def stream(arr):
                for value in np.nditer(arr):
                    yield int(value)
            """,
            KERNEL,
            ["R008"],
        )
        assert diags == []

    def test_may_taint_joins_to_unknown_and_stays_silent(self):
        # only *definite* taints fire: py-or-numpy joins to TOP
        diags = run(
            """
            import numpy as np


            def fill(stats, arr, flag):
                total = 0
                if flag:
                    total = np.sum(arr)
                stats.nodes = total
            """,
            KERNEL,
            ["R008"],
        )
        assert diags == []

    def test_taint_composes_through_helper_summary(self):
        diags = run(
            """
            import numpy as np


            def _score(arr):
                return np.sum(arr)


            def fill(stats, arr):
                stats.nodes = _score(arr)
            """,
            KERNEL,
            ["R008"],
        )
        assert [d.rule for d in diags] == ["R008"]

    def test_fires_on_lazily_imported_numpy_in_the_dynamic_graph(self):
        """The indptr shift's pattern: numpy bound to a module global by
        an import inside a function."""
        diags = run(
            """
            _np = None


            def _load_numpy():
                global _np
                import numpy as _np
                return _np


            def fill(stats, arr):
                _load_numpy()
                stats.nodes = _np.sum(arr)
            """,
            DYNAMIC,
            ["R008"],
        )
        assert [d.rule for d in diags] == ["R008"]


# ----------------------------------------------------------------------
# R009 mutation-version discipline
# ----------------------------------------------------------------------
class TestR009:
    def test_fires_on_uncommitted_public_mutator(self):
        diags = run(
            """
            class DynamicGraph:
                def add_edge(self, u, v):
                    self.adj[u].append(v)
            """,
            DYNAMIC,
            ["R009"],
        )
        assert [d.rule for d in diags] == ["R009"]
        assert "add_edge" in diags[0].message

    def test_commit_at_the_end_is_clean(self):
        diags = run(
            """
            class DynamicGraph:
                def _commit(self):
                    self._version += 1
                    self._log.append(("touch",))

                def add_edge(self, u, v):
                    self.adj[u].append(v)
                    self._commit()
            """,
            DYNAMIC,
            ["R009"],
        )
        assert diags == []

    def test_fires_when_commit_is_only_conditional(self):
        diags = run(
            """
            class DynamicGraph:
                def _commit(self):
                    self._version += 1
                    self._log.append(("touch",))

                def add_edge(self, u, v, flag):
                    self.adj[u].append(v)
                    if flag:
                        self._commit()
            """,
            DYNAMIC,
            ["R009"],
        )
        assert [d.rule for d in diags] == ["R009"]

    def test_private_helpers_may_stay_dirty(self):
        diags = run(
            """
            class DynamicGraph:
                def _wipe(self, u):
                    self.adj[u].clear()
            """,
            DYNAMIC,
            ["R009"],
        )
        assert diags == []

    def test_dirty_bit_propagates_through_helper_summary(self):
        diags = run(
            """
            class DynamicGraph:
                def _wipe(self, u):
                    self.adj[u].clear()

                def clear_vertex(self, u):
                    self._wipe(u)
            """,
            DYNAMIC,
            ["R009"],
        )
        assert [d.rule for d in diags] == ["R009"]
        assert "clear_vertex" in diags[0].message

    def test_helper_then_commit_is_clean(self):
        diags = run(
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
            DYNAMIC,
            ["R009"],
        )
        assert diags == []

    def test_commit_that_logs_before_bumping_fires(self):
        diags = run(
            """
            class DynamicGraph:
                def _commit(self):
                    self._log.append(("touch",))
                    self._version += 1
            """,
            DYNAMIC,
            ["R009"],
        )
        assert [d.rule for d in diags] == ["R009"]
        assert "before bumping" in diags[0].message

    def test_commit_that_never_bumps_fires(self):
        diags = run(
            """
            class DynamicGraph:
                def _commit(self):
                    self._log.append(("touch",))
            """,
            DYNAMIC,
            ["R009"],
        )
        assert [d.rule for d in diags] == ["R009"]
        assert "never bumps" in diags[0].message
