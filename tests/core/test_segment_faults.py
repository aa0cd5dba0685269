"""Fault injection on every shared-memory creator.

A creator owns the ``/dev/shm`` name it allocates until it hands the
owning object back to its caller.  If anything between the allocation
and that hand-off raises, including ``KeyboardInterrupt``, the creator
must unlink the name itself: nobody else holds it, and the segments are
never registered with the ``resource_tracker``.  Each case below makes
the step right after the allocation raise ``KeyboardInterrupt`` and
then reads ``/dev/shm`` for names this process left behind.

Attachers are the other half of the ownership rule: they close their
mapping and never unlink, since the name belongs to the creator.

``test_creator_set_is_pinned`` lists every function that allocates a
segment, so a new creator cannot land without a case here.
"""

import ast
import glob
import os
from pathlib import Path

import pytest

import repro.core.shm as shm
from repro.core import CFLMatch
from repro.core.parallel import _shared_store
from repro.core.shm import (
    SEGMENT_PREFIX,
    PlanSegment,
    SharedGraphStore,
    attach_graph_store,
    attach_plan_segment,
)
from repro.testing.workloads import WorkloadSpec, generate_case

SHM_DIR = Path("/dev/shm")
SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"

pytestmark = pytest.mark.skipif(not SHM_DIR.is_dir(), reason="/dev/shm unavailable")


def _own_names() -> set:
    """Segment names this process created and has not unlinked."""
    return set(glob.glob(str(SHM_DIR / f"{SEGMENT_PREFIX}{os.getpid():x}-*")))


@pytest.fixture
def leaked():
    """The names a test leaves behind, unlinked on teardown so a
    failing case does not leave them in ``/dev/shm``."""
    before = _own_names()
    yield lambda: _own_names() - before
    for path in _own_names() - before:
        os.unlink(path)


@pytest.fixture(scope="module")
def case():
    return generate_case(11, 1, WorkloadSpec(scenarios=("dense",)))


def _interrupt(*_args, **_kwargs):
    raise KeyboardInterrupt


#: creator -> (object patched, attribute made to raise, call that creates)
FAULTS = {
    "SharedGraphStore.create": (
        shm, "pack_segment", lambda case: SharedGraphStore.create(case.data)
    ),
    "PlanSegment.create": (
        shm,
        "pack_segment",
        lambda case: PlanSegment.create(CFLMatch(case.data).prepare(case.query)),
    ),
    "_shared_store": (
        SharedGraphStore, "worker_handle", lambda case: _shared_store(case.data)
    ),
}


@pytest.mark.parametrize("creator", sorted(FAULTS))
def test_interrupt_after_allocation_unlinks_the_name(
    creator, case, leaked, monkeypatch
):
    target, attribute, create = FAULTS[creator]
    monkeypatch.setattr(target, attribute, _interrupt)
    with pytest.raises(KeyboardInterrupt):
        create(case)
    assert leaked() == set(), f"{creator} leaked its segment name"


def _segment_allocators() -> set:
    """Qualified names of the functions in ``src/repro`` that call
    ``_create_segment``."""
    found = set()
    for path in SRC_ROOT.rglob("*.py"):
        tree = ast.parse(path.read_text(), filename=str(path))
        stack = [(node, "") for node in tree.body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = prefix + node.name
                for child in node.body:
                    stack.append((child, qualname + "."))
                if not isinstance(node, ast.ClassDef) and any(
                    isinstance(sub, ast.Call)
                    and getattr(sub.func, "id", getattr(sub.func, "attr", None))
                    == "_create_segment"
                    for sub in ast.walk(node)
                ):
                    found.add(qualname)
    return found


def test_creator_set_is_pinned():
    """A new caller of ``_create_segment`` needs its own entry in
    :data:`FAULTS`."""
    # _shared_store is the one case that allocates through another creator
    assert _segment_allocators() == set(FAULTS) - {"_shared_store"}


def test_attachers_leave_the_name_to_the_creator(case, leaked):
    matcher = CFLMatch(case.data)
    plan = matcher.prepare(case.query)
    store = SharedGraphStore.create(case.data)
    segment = PlanSegment.create(plan)
    try:
        for _ in range(2):  # a second attach finds the name still there
            attached = attach_graph_store(store.worker_handle())
            attached.unlink()  # a no-op for an attacher
            attached.close()
            _, plan_view = attach_plan_segment(matcher, segment.name)
            plan_view.unlink()
            plan_view.close()
        assert leaked() == {
            str(SHM_DIR / store.name), str(SHM_DIR / segment.name)
        }
    finally:
        store.unlink()
        store.close()
        segment.unlink()
        segment.close()
    assert leaked() == set()
