"""Fixture tests for every repro-lint rule: one firing snippet and one
near-miss per rule, so a rule that silently stops firing (or starts
over-firing) fails here before it rots in CI."""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import lint_source


def run(source: str, relpath: str, select=None):
    return lint_source(textwrap.dedent(source), relpath, select=select)


# ----------------------------------------------------------------------
# R003 frozen-plan
# ----------------------------------------------------------------------
class TestR003:
    def test_fires_on_annotated_parameter_mutation(self):
        diags = run(
            """
            def f(prepared: "PreparedQuery") -> None:
                prepared.order = []
            """,
            "src/repro/core/parallel.py",
            select=["R003"],
        )
        assert [d.rule for d in diags] == ["R003"]

    def test_fires_on_producer_result_mutation(self):
        diags = run(
            """
            def f(matcher, query):
                p = matcher.prepare(query)
                p.cpi.candidates[0] = []
            """,
            "src/repro/core/parallel.py",
            select=["R003"],
        )
        assert len(diags) == 1

    def test_fires_on_timing_stamped_into_a_cached_plan(self):
        # The test suite misses this bug: a pool run writes its timing
        # into the plan the matcher's cache hands to later queries.
        diags = run(
            """
            def run(self, query, prepared=None):
                plan = prepared
                if plan is None:
                    plan = self.matcher.prepare(query, use_cache=False)
                plan.phase_times["enumeration"] = 0.5
                return dict(plan.phase_times)
            """,
            "src/repro/core/parallel.py",
            select=["R003"],
        )
        assert [d.rule for d in diags] == ["R003"]

    def test_near_miss_rebinding_passes(self):
        diags = run(
            """
            def f(plan, other):
                plan = other
                return plan
            """,
            "src/repro/core/parallel.py",
            select=["R003"],
        )
        assert diags == []

    def test_near_miss_plan_container_passes(self):
        # the worker-side plan LRU holds plans; inserting is not mutation
        diags = run(
            """
            def f(key, plan):
                plans: "OrderedDict[int, PreparedQuery]" = get_cache()
                plans[key] = plan
            """,
            "src/repro/core/parallel.py",
            select=["R003"],
        )
        assert diags == []

    def test_excluded_in_builder_modules(self):
        diags = run(
            """
            def f(cpi, tree):
                cpi.tree = tree
            """,
            "src/repro/core/cpi_builder.py",
            select=["R003"],
        )
        assert diags == []

    def test_fires_on_segment_write_outside_pack(self):
        diags = run(
            """
            def patch(segment, value):
                segment.buf[0] = value
            """,
            "src/repro/core/shm.py",
            select=["R003"],
        )
        assert [d.rule for d in diags] == ["R003"]
        assert "read-only once published" in diags[0].message

    def test_fires_on_word_view_write_in_ingest(self):
        diags = run(
            """
            def fixup(words):
                words[3] += 1
            """,
            "src/repro/graph/ingest.py",
            select=["R003"],
        )
        assert len(diags) == 1

    def test_near_miss_segment_write_inside_pack_passes(self):
        diags = run(
            """
            def pack_segment(buffer, kind, sections):
                words = memoryview(buffer).cast("i")
                words[0] = kind
            """,
            "src/repro/core/shm.py",
            select=["R003"],
        )
        assert diags == []

    def test_near_miss_segment_write_outside_shm_modules_passes(self):
        # the discipline is scoped to the segment-owning modules
        diags = run(
            """
            def f(words):
                words[0] = 1
            """,
            "src/repro/core/kernel.py",
            select=["R003"],
        )
        assert diags == []

    # -- the dynamic module has no carve-out ---------------------------
    def test_repair_function_in_dynamic_module_fires(self):
        diags = run(
            """
            def _repair_sync(self, reg):
                prepared = reg.prepared
                prepared.phase_times["cpi_repair"] = 0.0
            """,
            "src/repro/core/dynamic.py",
            select=["R003"],
        )
        assert [d.rule for d in diags] == ["R003"]

    def test_non_repair_function_in_dynamic_module_still_fires(self):
        diags = run(
            """
            def register(self, query):
                prepared = self._matcher.prepare(query)
                prepared.order = []
            """,
            "src/repro/core/dynamic.py",
            select=["R003"],
        )
        assert [d.rule for d in diags] == ["R003"]

    def test_repair_function_outside_dynamic_module_still_fires(self):
        diags = run(
            """
            def repair_plan(plan):
                plan.order = []
            """,
            "src/repro/core/parallel.py",
            select=["R003"],
        )
        assert [d.rule for d in diags] == ["R003"]


# ----------------------------------------------------------------------
# R004 deterministic-iteration
# ----------------------------------------------------------------------
class TestR004:
    PATH = "src/repro/core/ordering.py"

    def test_fires_on_loop_over_set(self):
        diags = run(
            """
            def f(xs):
                pending = set(xs)
                for v in pending:
                    print(v)
            """,
            self.PATH,
            select=["R004"],
        )
        assert [d.rule for d in diags] == ["R004"]

    def test_fires_on_comprehension_over_set_algebra(self):
        diags = run(
            """
            def f(a, b):
                left = set(a)
                return [v for v in left - set(b)]
            """,
            self.PATH,
            select=["R004"],
        )
        assert len(diags) == 1

    def test_fires_on_cand_sets_subscript(self):
        diags = run(
            """
            def f(cpi, u):
                for v in cpi.cand_sets[u]:
                    print(v)
            """,
            self.PATH,
            select=["R004"],
        )
        assert len(diags) == 1

    def test_fires_on_delta_events_built_from_a_set(self):
        # The test suite misses this bug: a continuous query lists the
        # embeddings a delta created in set order instead of sorted.
        diags = run(
            """
            def refresh(before, after):
                after_set = set(after)
                return tuple(e for e in after_set if e not in before)
            """,
            "src/repro/core/dynamic.py",
            select=["R004"],
        )
        assert [d.rule for d in diags] == ["R004"]

    def test_near_miss_sorted_wrapper_passes(self):
        diags = run(
            """
            def f(xs):
                pending = set(xs)
                for v in sorted(pending):
                    print(v)
            """,
            self.PATH,
            select=["R004"],
        )
        assert diags == []

    def test_near_miss_list_iteration_passes(self):
        diags = run(
            """
            def f(xs):
                pending = list(xs)
                for v in pending:
                    print(v)
            """,
            self.PATH,
            select=["R004"],
        )
        assert diags == []

    def test_not_scoped_to_other_modules(self):
        diags = run(
            "def f(xs):\n    for v in set(xs):\n        print(v)\n",
            "src/repro/core/decomposition.py",
            select=["R004"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# R005 no-wallclock-in-core
# ----------------------------------------------------------------------
class TestR005:
    def test_fires_on_perf_counter_call(self):
        diags = run(
            """
            import time

            def f():
                return time.perf_counter()
            """,
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert [d.rule for d in diags] == ["R005"]
        assert "monotonic_now" in diags[0].message

    def test_fires_on_a_second_clock_in_the_kernel_deadline_poll(self):
        # The test suite misses this bug: time.monotonic() reads the same
        # clock as monotonic_now() on Linux, so every answer stays right,
        # but the poll no longer goes through the one clock seam.
        diags = run(
            """
            import time

            def poll(nodes, deadline):
                if deadline is not None and time.monotonic() > deadline:
                    raise SearchTimeout
            """,
            "src/repro/core/kernel.py",
            select=["R005"],
        )
        assert [d.rule for d in diags] == ["R005"]

    def test_fires_on_clock_from_import(self):
        diags = run(
            "from time import monotonic\n",
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert len(diags) == 1

    def test_fires_on_datetime_now(self):
        diags = run(
            """
            import datetime

            def f():
                return datetime.datetime.now()
            """,
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert len(diags) == 1

    def test_near_miss_sleep_passes(self):
        diags = run(
            "import time\n\ndef f():\n    time.sleep(0.1)\n",
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert diags == []

    def test_exempt_in_stats_and_matcher(self):
        source = "import time\n\ndef f():\n    return time.perf_counter()\n"
        for exempt in ("src/repro/core/stats.py", "src/repro/core/matcher.py"):
            assert run(source, exempt, select=["R005"]) == []


# ----------------------------------------------------------------------
# R006 no-swallowed-exceptions
# ----------------------------------------------------------------------
class TestR006:
    PATH = "src/repro/core/parallel.py"

    def test_fires_on_bare_except(self):
        diags = run(
            """
            def f(x):
                try:
                    x()
                except:
                    pass
            """,
            self.PATH,
            select=["R006"],
        )
        assert [d.rule for d in diags] == ["R006"]

    def test_fires_on_broad_except_pass(self):
        diags = run(
            """
            def f(x):
                try:
                    x()
                except Exception:
                    pass
            """,
            "src/repro/cli.py",
            select=["R006"],
        )
        assert len(diags) == 1

    def test_fires_on_bare_except_with_a_body_in_the_cli(self):
        # The test suite misses this bug: a bare except in cli.main also
        # turns Ctrl-C and every command error into exit code 0.
        diags = run(
            """
            def main(argv=None):
                args = build_parser().parse_args(argv)
                try:
                    return args.func(args)
                except:
                    return 0
            """,
            "src/repro/cli.py",
            select=["R006"],
        )
        assert [d.rule for d in diags] == ["R006"]

    def test_near_miss_specific_exception_pass_passes(self):
        diags = run(
            """
            def f(x):
                try:
                    x()
                except OSError:
                    pass
            """,
            self.PATH,
            select=["R006"],
        )
        assert diags == []

    def test_near_miss_broad_except_with_handling_passes(self):
        diags = run(
            """
            def f(x, log):
                try:
                    x()
                except Exception as exc:
                    log(exc)
                    raise
            """,
            self.PATH,
            select=["R006"],
        )
        assert diags == []

    def test_not_scoped_to_core_match(self):
        diags = run(
            "def f(x):\n    try:\n        x()\n    except:\n        pass\n",
            "src/repro/core/core_match.py",
            select=["R006"],
        )
        assert diags == []


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppression:
    def test_same_line_suppression(self):
        diags = run(
            "import time\n\n"
            "def f():\n"
            "    return time.perf_counter()  # repro-lint: disable=R005\n",
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert diags == []

    def test_standalone_comment_suppresses_next_line(self):
        diags = run(
            "import time\n\n"
            "def f():\n"
            "    # repro-lint: disable=R005\n"
            "    return time.perf_counter()\n",
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert diags == []

    def test_disable_file(self):
        diags = run(
            "# repro-lint: disable-file=R005\n"
            "import time\n\n"
            "def f():\n"
            "    return time.perf_counter()\n",
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert diags == []

    def test_wrong_rule_id_does_not_suppress(self):
        diags = run(
            "import time\n\n"
            "def f():\n"
            "    return time.perf_counter()  # repro-lint: disable=R004\n",
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert len(diags) == 1

    def test_pragma_inside_string_literal_is_ignored(self):
        diags = run(
            'import time\n\n'
            'def f():\n'
            '    note = "# repro-lint: disable=R005"\n'
            '    return time.perf_counter(), note\n',
            "src/repro/core/foo.py",
            select=["R005"],
        )
        assert len(diags) == 1


def test_unknown_rule_id_raises():
    with pytest.raises(KeyError):
        run("x = 1\n", "src/repro/core/foo.py", select=["R999"])
