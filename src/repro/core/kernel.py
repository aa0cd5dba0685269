"""Flat-array enumeration kernel: the CPI lowered to int32 CSR arrays.

Enumeration dominates total time in the paper (Figures 8-9), and the
reference backtracker (:class:`~repro.core.core_match.CPIBacktracker`)
pays full Python overhead per search node: a dict-of-lists adjacency
probe (``adjacency[u].get(parent_image)``) per descend, an ``iter()``
allocation per slot, and one set-membership probe per backward non-tree
edge per candidate.  This module compiles a prepared plan once into flat
``array('i')`` storage and replaces the iterator stack with integer
cursors:

* **candidate sets** become contiguous sorted arrays (``base_v``) with
  their ranks (``base_r``) alongside;
* **per-tree-edge adjacency** becomes CSR (``indptrs``/``flat_v``) keyed
  by the parent candidate's *rank* within ``candidates[parent]`` — the
  child row of a chosen parent is ``flat_v[indptr[rank]:indptr[rank+1]]``
  with no dict probe at all.  ``flat_r`` carries each entry's own rank in
  ``candidates[u]`` so the rank chain continues down the order;
* **backward non-tree edges** become a per-slot flattened edge list; a
  slot with >= 1 backward neighbor and a long candidate row generates
  its candidates by sorted-array intersection of the anchor row with
  the mapped neighbors' data-graph adjacency rows (smallest row first),
  so validation work moves from per-candidate probes to one pre-shrunk
  stream.  Tree-anchored rows shorter than ``_INTERSECT_MIN`` use one
  C-level ``frozenset`` intersection per backward edge instead (the
  rows are pre-frozen at compile time in ``set_rows``), and slots whose
  anchor and backward images all live strictly above the previous depth
  reuse the filtered stream across consecutive descends outright — only
  the previous depth's candidate varies between them, and it plays no
  part in the row.  Short cross-anchored rows fall back to per-candidate
  hash probes of the mapped images' neighbor sets;
* **data-graph adjacency** is the graph's own rows (``adj_rows`` is
  ``data.adj``, sorted on every graph type), membership-checked by
  :func:`bisect.bisect_left` with a moving lower bound (the C-level
  realization of galloping: each probe is a binary search restricted to
  the not-yet-passed suffix).  No copy of the adjacency is taken, so a
  plan reads the graph's current rows.

Counter semantics match the reference exactly for complete runs:
``nodes``, ``backtracks``, ``backjumps`` and ``embeddings`` are
bit-identical (both engines backjump on the same failing sets, see
:class:`~repro.core.core_match.CPIBacktracker`), and on a run without
backjumps the *sum* ``injectivity_conflicts + edge_check_failures`` is
identical (each rejected candidate is counted exactly once by both
engines).  On the deferred per-candidate path the split matches the
reference exactly (occupancy is checked first, then edges,
short-circuiting).  On the eager path the split can differ for
candidates that are simultaneously occupied *and* edge-failing: the
reference checks ``used`` first, while the intersection eliminates
edge-failing candidates without ever looking at occupancy and
attributes them to ``edge_check_failures``.  The eager path also
charges a whole row's eliminations when it installs the row, so after
a backjump skips the rest of that row the kernel's sum can exceed the
reference's, which never reached those candidates.
On budget/deadline-truncated runs ``nodes`` (and therefore the truncation
point) is still exact — ``WorkBudget`` is charged per accepted candidate
at cursor-advance time, before the expansion is counted, and the deadline
is polled on the same ``nodes & 1023`` cadence — but the kernel may have
pre-counted edge failures for row suffixes the reference never reached.

Enumeration *order* is identical to the reference: CPI adjacency rows and
candidate lists are stored sorted ascending (the builders construct them
by filtering the data graph's sorted adjacency), so ``limit``-truncated
searches return the same prefix under either engine.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..graph.graph import IntVector
from .core_match import OrderedVertex, SearchTimeout, failing_set_masks
from .cpi import CPI
from .stats import SearchStats, WorkBudget, monotonic_now

__all__ = [
    "CompiledStage",
    "IntVector",
    "KernelBacktracker",
    "KernelPlan",
    "compile_kernel_plan",
    "compile_stage",
]

#: Slot candidate-source modes.  ``MODE_ROOT``: candidates come straight
#: from ``candidates[u]`` (no anchored adjacency list).  ``MODE_TREE``:
#: the slot's tree parent sits earlier in the *same* stage, so its rank
#: is live in the cursor state and the row is a CSR lookup.
#: ``MODE_CROSS``: the parent was mapped by an earlier stage (a forest
#: slot anchored on a core vertex) — one dict probe per descend, same as
#: the reference, but returning pre-flattened arrays.
MODE_ROOT = 0
MODE_TREE = 1
MODE_CROSS = 2

#: Per-depth descend dispatch inside :meth:`KernelBacktracker.extend`.
#: ``_KIND_TREE``/``_KIND_ROOT`` are the backward-free fast paths whose
#: streams are installed once per ``extend`` call; ``_KIND_TREE_BW`` is
#: the inline frozenset-intersection path for tree slots with backward
#: edges (with the consecutive-descend stream cache); everything else
#: (cross probes, backward intersections over long root rows) routes
#: through ``_enter``.
_KIND_SLOW = 0
_KIND_TREE = 1
_KIND_ROOT = 2
_KIND_TREE_BW = 3

#: Minimum candidate-row size for the eager *galloping* intersection.  A
#: sorted-array intersection amortizes only over rows long enough to
#: skip through.  Below this, tree-anchored slots intersect the
#: pre-frozen row with the mapped images' neighbor sets (one C call per
#: backward edge), while cross-anchored slots install the raw row and
#: validate each candidate against the neighbor sets in the enumeration
#: loop (short-circuiting, occupancy checked first — the exact
#: attribution order of the reference engine).
_INTERSECT_MIN = 32

_EMPTY_ROW: array[int] = array("i")
_EMPTY_CROSS: Dict[int, Tuple[array[int], array[int]]] = {}
_EMPTY_SETS: Dict[int, FrozenSet[int]] = {}
_EMPTY_RANKS: Dict[int, int] = {}
#: Shared "no deferred backward checks" sentinel (never mutated).
_NO_CHECKS: List[int] = []


class CompiledStage:
    """One stage's matching-order slots lowered to flat arrays.

    Parallel tuples indexed by depth; non-applicable entries hold shared
    empty placeholders instead of ``None`` so the hot loop never branches
    on optionality.  All arrays are immutable by convention — a stage is
    part of a shared plan (repro-lint R003 applies to its consumers).
    """

    __slots__ = (
        "length",
        "slot_vertices",
        "modes",
        "parent_depths",
        "parent_vertices",
        "base_v",
        "base_r",
        "indptrs",
        "flat_v",
        "flat_r",
        "cross_rows",
        "backward",
        "set_rows",
        "rank_of",
        "ancestors",
    )

    def __init__(
        self,
        length: int,
        slot_vertices: Tuple[int, ...],
        modes: Tuple[int, ...],
        parent_depths: Tuple[int, ...],
        parent_vertices: Tuple[int, ...],
        base_v: Tuple[IntVector, ...],
        base_r: Tuple[IntVector, ...],
        indptrs: Tuple[IntVector, ...],
        flat_v: Tuple[IntVector, ...],
        flat_r: Tuple[IntVector, ...],
        cross_rows: Tuple[Dict[int, Tuple[IntVector, IntVector]], ...],
        backward: Tuple[Tuple[int, ...], ...],
        set_rows: Tuple[Dict[int, FrozenSet[int]], ...],
        rank_of: Tuple[Dict[int, int], ...],
        ancestors: Optional[Dict[int, int]],
    ) -> None:
        self.length = length
        self.slot_vertices = slot_vertices
        self.modes = modes
        self.parent_depths = parent_depths
        self.parent_vertices = parent_vertices
        self.base_v = base_v
        self.base_r = base_r
        self.indptrs = indptrs
        self.flat_v = flat_v
        self.flat_r = flat_r
        self.cross_rows = cross_rows
        self.backward = backward
        #: tree slots with backward edges additionally carry each CSR row
        #: as a frozenset keyed by the *parent image*: short rows are
        #: validated by one C-level set intersection against the mapped
        #: neighbors' adjacency sets instead of per-candidate probes
        self.set_rows = set_rows
        #: candidate -> rank in ``candidates[u]`` for those same slots
        #: (survivors of a set intersection lose their CSR position; the
        #: rank chain is restored by one dict probe per survivor)
        self.rank_of = rank_of
        #: failing-set ancestor masks (:func:`failing_set_masks`), or
        #: ``None`` for a stage without a backward edge, which never
        #: backjumps
        self.ancestors = ancestors

    def with_base(
        self, depth: int, vertices: IntVector, ranks: IntVector
    ) -> "CompiledStage":
        """Copy of this stage with slot ``depth``'s base arrays replaced
        (the root-restriction path); everything else is shared."""

        def swap(
            rows: Tuple[IntVector, ...], value: IntVector
        ) -> Tuple[IntVector, ...]:
            return rows[:depth] + (value,) + rows[depth + 1:]

        return CompiledStage(
            length=self.length,
            slot_vertices=self.slot_vertices,
            modes=self.modes,
            parent_depths=self.parent_depths,
            parent_vertices=self.parent_vertices,
            base_v=swap(self.base_v, vertices),
            base_r=swap(self.base_r, ranks),
            indptrs=self.indptrs,
            flat_v=self.flat_v,
            flat_r=self.flat_r,
            cross_rows=self.cross_rows,
            backward=self.backward,
            set_rows=self.set_rows,
            rank_of=self.rank_of,
            ancestors=self.ancestors,
        )


def compile_stage(cpi: CPI, ordered: Sequence[OrderedVertex]) -> CompiledStage:
    """Lower one stage's :class:`OrderedVertex` slots to a
    :class:`CompiledStage`.

    Tree-edge rows are concatenated in ``candidates[parent]`` order so a
    parent chosen at rank ``r`` owns the CSR row
    ``[indptr[r], indptr[r+1])`` — the dict probe of the reference path
    becomes two int32 loads.  Rows are stored verbatim (the builders keep
    them sorted ascending and subsets of ``candidates[u]``, which the
    rank lookup below relies on).
    """
    candidates = cpi.candidates
    adjacency = cpi.adjacency
    depth_of: Dict[int, int] = {}
    slot_vertices: List[int] = []
    modes: List[int] = []
    parent_depths: List[int] = []
    parent_vertices: List[int] = []
    base_v: List[array[int]] = []
    base_r: List[array[int]] = []
    indptrs: List[array[int]] = []
    flat_vs: List[array[int]] = []
    flat_rs: List[array[int]] = []
    cross_rows: List[Dict[int, Tuple[array[int], array[int]]]] = []
    backward: List[Tuple[int, ...]] = []
    set_rows: List[Dict[int, FrozenSet[int]]] = []
    rank_of: List[Dict[int, int]] = []

    for depth, slot in enumerate(ordered):
        u = slot.u
        parent = slot.tree_parent
        slot_vertices.append(u)
        backward.append(tuple(slot.backward_neighbors))
        if parent is None:
            own = candidates[u]
            modes.append(MODE_ROOT)
            parent_depths.append(-1)
            parent_vertices.append(-1)
            base_v.append(array("i", own))
            base_r.append(array("i", range(len(own))))
            indptrs.append(_EMPTY_ROW)
            flat_vs.append(_EMPTY_ROW)
            flat_rs.append(_EMPTY_ROW)
            cross_rows.append(_EMPTY_CROSS)
            set_rows.append(_EMPTY_SETS)
            rank_of.append(_EMPTY_RANKS)
        else:
            rank_in_u = {v: i for i, v in enumerate(candidates[u])}
            table = adjacency[u]
            parent_vertices.append(parent)
            base_v.append(_EMPTY_ROW)
            base_r.append(_EMPTY_ROW)
            if slot.backward_neighbors:
                set_rows.append(
                    {v_p: frozenset(row) for v_p, row in table.items()}
                )
                rank_of.append(rank_in_u)
            else:
                set_rows.append(_EMPTY_SETS)
                rank_of.append(_EMPTY_RANKS)
            if parent in depth_of:
                modes.append(MODE_TREE)
                parent_depths.append(depth_of[parent])
                indptr = array("i", [0])
                fv = array("i")
                fr = array("i")
                for v_p in candidates[parent]:
                    row = table.get(v_p)
                    if row:
                        fv.extend(row)
                        fr.extend([rank_in_u[v] for v in row])
                    indptr.append(len(fv))
                indptrs.append(indptr)
                flat_vs.append(fv)
                flat_rs.append(fr)
                cross_rows.append(_EMPTY_CROSS)
            else:
                modes.append(MODE_CROSS)
                parent_depths.append(-1)
                indptrs.append(_EMPTY_ROW)
                flat_vs.append(_EMPTY_ROW)
                flat_rs.append(_EMPTY_ROW)
                rows: Dict[int, Tuple[array[int], array[int]]] = {}
                for v_p in sorted(table):
                    row = table[v_p]
                    rows[v_p] = (
                        array("i", row),
                        array("i", [rank_in_u[v] for v in row]),
                    )
                cross_rows.append(rows)
        depth_of[u] = depth

    return CompiledStage(
        length=len(slot_vertices),
        slot_vertices=tuple(slot_vertices),
        modes=tuple(modes),
        parent_depths=tuple(parent_depths),
        parent_vertices=tuple(parent_vertices),
        base_v=tuple(base_v),
        base_r=tuple(base_r),
        indptrs=tuple(indptrs),
        flat_v=tuple(flat_vs),
        flat_r=tuple(flat_rs),
        cross_rows=tuple(cross_rows),
        backward=tuple(backward),
        set_rows=tuple(set_rows),
        rank_of=tuple(rank_of),
        ancestors=failing_set_masks(ordered),
    )


class KernelPlan:
    """Core + forest :class:`CompiledStage` pair plus the data graph's rows.

    Attached to a :class:`~repro.core.matcher.PreparedQuery` (its
    ``kernel`` field) by the matcher when ``engine="kernel"``.  Pool
    workers get it from the plan's shared segment
    (:func:`~repro.core.shm.read_plan_segment` wraps the stage sections
    in place, no recompilation).  Restriction goes through
    :meth:`with_root_candidates` — the same copy-making discipline
    repro-lint R003 enforces for the CPI itself.
    """

    __slots__ = ("core", "forest", "root", "adj_rows", "adj_sets")

    def __init__(
        self,
        core: CompiledStage,
        forest: CompiledStage,
        root: int,
        adj_rows: Sequence[Sequence[int]],
        adj_sets: Sequence[AbstractSet[int]],
    ) -> None:
        self.core = core
        self.forest = forest
        self.root = root
        #: the data graph's sorted adjacency rows (``data.adj``), which
        #: the galloping intersection bisects
        self.adj_rows = adj_rows
        #: the data graph's per-vertex neighbor sets, borrowed for the
        #: deferred (short-row) backward checks — point membership is a
        #: hash probe there, while the sorted rows serve the galloping
        #: intersection where bisect actually amortizes
        self.adj_sets = adj_sets

    def with_root_candidates(self, filtered: Iterable[int]) -> "KernelPlan":
        """Copy whose root slot enumerates only ``filtered`` (sorted).

        The replacement base arrays keep each survivor's rank in the
        *original* candidate list (looked up by bisect against the
        current base, which itself carries original ranks — restriction
        composes), so child CSR rows keyed by root rank stay valid.
        Cost is O(|filtered| log |C(root)|); every other array is shared.
        """
        wanted = sorted(filtered)
        for stage, is_core in ((self.core, True), (self.forest, False)):
            for depth in range(stage.length):
                if (
                    stage.modes[depth] == MODE_ROOT
                    and stage.slot_vertices[depth] == self.root
                ):
                    current_v = stage.base_v[depth]
                    current_r = stage.base_r[depth]
                    size = len(current_v)
                    new_v = array("i")
                    new_r = array("i")
                    for v in wanted:
                        index = bisect_left(current_v, v)
                        if index < size and current_v[index] == v:
                            new_v.append(v)
                            new_r.append(current_r[index])
                    swapped = stage.with_base(depth, new_v, new_r)
                    return KernelPlan(
                        core=swapped if is_core else self.core,
                        forest=self.forest if is_core else swapped,
                        root=self.root,
                        adj_rows=self.adj_rows,
                        adj_sets=self.adj_sets,
                    )
        return self


def compile_kernel_plan(
    cpi: CPI,
    core_slots: Sequence[OrderedVertex],
    forest_slots: Sequence[OrderedVertex],
) -> KernelPlan:
    """Compile a prepared plan's stages into a :class:`KernelPlan`.

    The plan borrows the CPI's data graph's rows and neighbor sets; it
    copies no adjacency.
    """
    data = cpi.data
    return KernelPlan(
        core=compile_stage(cpi, core_slots),
        forest=compile_stage(cpi, forest_slots),
        root=cpi.root,
        adj_rows=data.adj,
        adj_sets=data._adj_sets,  # noqa: SLF001 - hot path, documented internal
    )


def _intersect(
    base_v: Sequence[int],
    base_r: Sequence[int],
    begin: int,
    stop: int,
    rows: List[Sequence[int]],
    want_ranks: bool,
) -> Tuple[Sequence[int], Sequence[int]]:
    """Intersect the sorted base slice with every backward adjacency row.

    ``rows`` holds the data graph's sorted rows of the mapped backward
    neighbors, shortest first so the most selective row shrinks the
    stream before the wider ones see it.  Each step walks the shorter
    side and gallops through the longer with :func:`bisect.bisect_left`
    restricted to a moving lower bound.  The first row intersects the
    ``[begin, stop)`` window in place (no copy of the base slice), and
    ranks ride along only when ``want_ranks`` — a slot that anchors no
    later tree slot never reads them.
    """
    cur_v: Sequence[int] = base_v
    cur_r: Sequence[int] = base_r
    cur_lo = begin
    cur_hi = stop
    for row in rows:
        if cur_lo == cur_hi:
            break
        next_v: List[int] = []
        next_r: List[int] = []
        row_hi = len(row)
        if row_hi * 4 < cur_hi - cur_lo:
            # The adjacency row is much shorter: walk it, gallop the stream.
            lo = cur_lo
            for v in row:
                at = bisect_left(cur_v, v, lo, cur_hi)
                if at == cur_hi:
                    break
                if cur_v[at] == v:
                    next_v.append(v)
                    if want_ranks:
                        next_r.append(cur_r[at])
                    lo = at + 1
                else:
                    lo = at
        else:
            # Comparable or longer row: walk the stream, gallop the row.
            lo = 0
            for at in range(cur_lo, cur_hi):
                v = cur_v[at]
                found = bisect_left(row, v, lo, row_hi)
                if found == row_hi:
                    break
                if row[found] == v:
                    next_v.append(v)
                    if want_ranks:
                        next_r.append(cur_r[at])
                    lo = found + 1
                else:
                    lo = found
        cur_v = next_v
        cur_r = next_r
        cur_lo = 0
        cur_hi = len(next_v)
    return cur_v, cur_r


class KernelBacktracker:
    """Cursor-based backtracking over one compiled stage.

    Drop-in replacement for the reference
    :class:`~repro.core.core_match.CPIBacktracker`: same ``extend``
    generator protocol (yield once per complete stage assignment,
    ``mapping``/``used`` mutated in place and restored), same
    ``SearchStats``/``WorkBudget``/deadline discipline.  See the module
    docstring for the one documented counter-attribution difference.
    """

    def __init__(
        self,
        kernel_plan: KernelPlan,
        stage: CompiledStage,
        stats: Optional[SearchStats] = None,
        deadline: Optional[float] = None,
        budget: Optional[WorkBudget] = None,
    ) -> None:
        self.stage = stage
        self.stats = stats if stats is not None else SearchStats()
        self.deadline = deadline
        self.budget = budget
        self._adj_rows = kernel_plan.adj_rows
        self._adj_sets = kernel_plan.adj_sets
        # Static per-depth dispatch, derived once per backtracker (the
        # stage is tiny).  ``_kinds`` splits descends into the two
        # branch-free fast paths and the general ``_enter`` path;
        # ``_needs_rank`` marks depths some later tree slot anchors on —
        # only those track ranks at all.  ``_template_v``/``_template_r``
        # pre-install the fixed streams (a fast slot's stream never
        # changes; only ``_enter`` rewrites slow slots' entries).
        length = stage.length
        needs_rank = [False] * length
        kinds: List[int] = []
        template_v: List[Sequence[int]] = []
        template_r: List[Sequence[int]] = []
        for depth in range(length):
            mode = stage.modes[depth]
            anchored = stage.parent_depths[depth]
            if mode == MODE_TREE and anchored >= 0:
                needs_rank[anchored] = True
            if mode == MODE_TREE:
                template_v.append(stage.flat_v[depth])
                template_r.append(stage.flat_r[depth])
                kinds.append(
                    _KIND_TREE_BW if stage.backward[depth] else _KIND_TREE
                )
            elif mode == MODE_ROOT:
                template_v.append(stage.base_v[depth])
                template_r.append(stage.base_r[depth])
                kinds.append(
                    _KIND_SLOW if stage.backward[depth] else _KIND_ROOT
                )
            else:
                template_v.append(_EMPTY_ROW)
                template_r.append(_EMPTY_ROW)
                kinds.append(_KIND_SLOW)
        self._kinds = tuple(kinds)
        self._needs_rank = tuple(needs_rank)
        self._template_v = tuple(template_v)
        self._template_r = tuple(template_r)
        self._base_len = tuple(len(row) for row in stage.base_v)
        # A backward-checked tree slot whose anchor parent and backward
        # images all live strictly above depth-1 recomputes the exact
        # same filtered stream on every consecutive descend (only the
        # depth-1 candidate varies between them).  ``_cache_dep`` marks
        # such slots with the deepest depth they depend on; ``extend``
        # reuses the previous stream while that depth's assignment stamp
        # is unchanged.  Backward images mapped by an enclosing stage
        # (cross-stage edges) are constant for a whole ``extend`` call
        # and contribute depth -1.
        depth_of = {u: d for d, u in enumerate(stage.slot_vertices)}
        cache_dep = []
        for depth in range(length):
            if kinds[depth] != _KIND_TREE_BW:
                cache_dep.append(-1)
                continue
            deps = [stage.parent_depths[depth]]
            deps.extend(depth_of.get(w, -1) for w in stage.backward[depth])
            deepest = max(deps)
            cache_dep.append(deepest if 0 <= deepest <= depth - 2 else -1)
        self._cache_dep = tuple(cache_dep)

    def _enter(
        self,
        depth: int,
        mapping: List[int],
        rank_at: List[int],
        stream_v: List[Sequence[int]],
        stream_r: List[Sequence[int]],
        pos: List[int],
        end: List[int],
        deferred: List[List[int]],
    ) -> int:
        """Install slot ``depth``'s candidate stream.

        Returns how many base-row candidates the eager backward
        intersection eliminated (0 when the row was too short to be
        worth intersecting — then ``deferred[depth]`` carries the mapped
        backward images and the enumeration loop validates per candidate
        against their neighbor sets instead).
        """
        stage = self.stage
        mode = stage.modes[depth]
        if mode == MODE_TREE:
            indptr = stage.indptrs[depth]
            parent_rank = rank_at[stage.parent_depths[depth]]
            begin = indptr[parent_rank]
            stop = indptr[parent_rank + 1]
            vs: Sequence[int] = stage.flat_v[depth]
            rs: Sequence[int] = stage.flat_r[depth]
        elif mode == MODE_ROOT:
            vs = stage.base_v[depth]
            rs = stage.base_r[depth]
            begin = 0
            stop = len(vs)
        else:
            row = stage.cross_rows[depth].get(mapping[stage.parent_vertices[depth]])
            if row is None:
                stream_v[depth] = _EMPTY_ROW
                stream_r[depth] = _EMPTY_ROW
                pos[depth] = 0
                end[depth] = 0
                deferred[depth] = _NO_CHECKS
                return 0
            vs, rs = row
            begin = 0
            stop = len(vs)
        checks = stage.backward[depth]
        if checks and stop > begin:
            if stop - begin >= _INTERSECT_MIN:
                adj_rows = self._adj_rows
                rows = [adj_rows[mapping[w]] for w in checks]
                if len(rows) > 1:
                    rows.sort(key=len)
                survivors_v, survivors_r = _intersect(
                    vs, rs, begin, stop, rows, self._needs_rank[depth],
                )
                stream_v[depth] = survivors_v
                stream_r[depth] = survivors_r
                pos[depth] = 0
                end[depth] = len(survivors_v)
                deferred[depth] = _NO_CHECKS
                return (stop - begin) - len(survivors_v)
            deferred[depth] = [mapping[w] for w in checks]
        else:
            deferred[depth] = _NO_CHECKS
        stream_v[depth] = vs
        stream_r[depth] = rs
        pos[depth] = begin
        end[depth] = stop
        return 0

    def extend(self, mapping: List[int], used: bytearray) -> Iterator[None]:
        """Yield once per complete assignment of this stage's vertices.

        Only ``nodes`` — the one counter bumped on *every* accepted
        candidate — lives in a local; it is written back at every control
        transfer (yield, raise, budget charge, return) and re-read after
        each yield, so mid-run observers — the shared ``WorkBudget``, the
        deadline poll, nested stages between yields — always see exact
        values.  The rare-event counters (``injectivity_conflicts``,
        ``edge_check_failures``, ``backtracks``) are bumped in place on
        the stats object, exactly like the reference engine.

        Descends dispatch on the precomputed per-depth kind: a tree slot
        without backward edges is two ``indptr`` loads, a root slot is a
        cursor reset, a tree slot *with* backward edges intersects its
        pre-frozen row against the mapped images' neighbor sets inline
        (reusing the previous stream wholesale when its dependencies are
        unchanged — see ``_cache_dep``), and only cross probes and long
        backward rows pay the general ``_enter`` call.  Backward edges
        of short cross- or root-anchored rows arrive as deferred image
        lists
        (``deferred[depth]``) and are hash-probed per candidate right
        here, after the occupancy check and before the budget charge —
        the reference engine's exact validation order.

        A stage with a backward edge backjumps on failing sets exactly
        like :class:`~repro.core.core_match.CPIBacktracker`.  All of its
        bookkeeping sits on the conflict and backtrack paths: whether a
        parent has a yielded descendant is read at backtrack time from
        the node count (every accepted last-depth candidate yields), so
        accepted candidates cost nothing extra.
        """
        stage = self.stage
        k = stage.length
        stats = self.stats
        if k == 0:
            yield None
            return
        budget = self.budget
        deadline = self.deadline
        slot_vertices = stage.slot_vertices
        parent_depths = stage.parent_depths
        parent_vertices = stage.parent_vertices
        indptrs = stage.indptrs
        kinds = self._kinds
        needs_rank = self._needs_rank
        base_len = self._base_len

        stream_v: List[Sequence[int]] = list(self._template_v)
        stream_r: List[Sequence[int]] = list(self._template_r)
        pos = [0] * k
        end = [0] * k
        rank_at = [0] * k
        deferred: List[List[int]] = [_NO_CHECKS] * k
        cache_dep = self._cache_dep
        stamp = [0] * k
        cache_stamp = [-1] * k
        cache_v: List[Sequence[int]] = list(self._template_v)
        cache_r: List[Sequence[int]] = list(self._template_r)
        cache_end = [0] * k
        cache_elim = [0] * k
        adj_sets = self._adj_sets
        set_rows = stage.set_rows
        rank_of = stage.rank_of
        backward = stage.backward
        ancestors = stage.ancestors
        if ancestors is not None:
            # ``acc[d]``: failing set of depth d's parent node so far;
            # ``found``: deepest depth whose parent node has a yielded
            # descendant (-1: none on the current path).
            acc = [0] * k
            found = -1

        nodes = stats.nodes
        enter = self._enter
        last = k - 1
        depth = 0
        eliminated = enter(0, mapping, rank_at, stream_v, stream_r, pos, end, deferred)
        if eliminated:
            stats.edge_check_failures += eliminated
        while True:
            u = slot_vertices[depth]
            vs = stream_v[depth]
            checks = deferred[depth]
            p = pos[depth]
            e = end[depth]
            while p < e:
                v = vs[p]
                p += 1
                if used[v]:
                    stats.injectivity_conflicts += 1
                    if ancestors is not None and found < depth:
                        for image in checks:
                            if image not in adj_sets[v]:
                                break
                        else:
                            owner = mapping.index(v)
                            acc[depth] |= ancestors[u] | ancestors.get(
                                owner, 1 << owner
                            )
                    continue
                if checks:
                    ok = True
                    for image in checks:
                        if image not in adj_sets[v]:
                            ok = False
                            break
                    if not ok:
                        stats.edge_check_failures += 1
                        continue
                if budget is not None:
                    stats.nodes = nodes
                    budget.charge()
                nodes += 1
                if (
                    deadline is not None
                    and (nodes & 1023) == 0
                    and monotonic_now() > deadline
                ):
                    stats.nodes = nodes
                    raise SearchTimeout
                mapping[u] = v
                used[v] = 1
                if depth == last:
                    stats.nodes = nodes
                    yield None
                    nodes = stats.nodes
                    used[v] = 0
                    mapping[u] = -1
                    continue
                if needs_rank[depth]:
                    rank_at[depth] = stream_r[depth][p - 1]
                stamp[depth] = nodes
                pos[depth] = p
                depth += 1
                kind = kinds[depth]
                if kind == _KIND_TREE:
                    indptr = indptrs[depth]
                    parent_rank = rank_at[parent_depths[depth]]
                    pos[depth] = indptr[parent_rank]
                    end[depth] = indptr[parent_rank + 1]
                elif kind == _KIND_TREE_BW:
                    dep = cache_dep[depth]
                    if dep >= 0 and cache_stamp[depth] == stamp[dep]:
                        # The anchor and every backward image are mapped
                        # above depth-1 and unchanged since the last
                        # descend here: reuse the filtered stream.  The
                        # eliminated count is re-charged because the
                        # reference engine re-probes the row each time.
                        stream_v[depth] = cache_v[depth]
                        if needs_rank[depth]:
                            stream_r[depth] = cache_r[depth]
                        pos[depth] = 0
                        end[depth] = cache_end[depth]
                        eliminated = cache_elim[depth]
                        if eliminated:
                            stats.edge_check_failures += eliminated
                        break
                    parent_image = mapping[parent_vertices[depth]]
                    row_set = set_rows[depth].get(parent_image)
                    if row_set is None:
                        pos[depth] = 0
                        end[depth] = 0
                        eliminated = 0
                    elif len(row_set) < _INTERSECT_MIN:
                        # Short row: one C-level set intersection per
                        # backward edge replaces per-candidate probes;
                        # the eliminated count is attributed in bulk.
                        survivors: FrozenSet[int] = row_set
                        for w in backward[depth]:
                            survivors = survivors & adj_sets[mapping[w]]
                            if not survivors:
                                break
                        eliminated = len(row_set) - len(survivors)
                        if eliminated:
                            stats.edge_check_failures += eliminated
                        if survivors:
                            ordered_row = sorted(survivors)
                            stream_v[depth] = ordered_row
                            if needs_rank[depth]:
                                rank_map = rank_of[depth]
                                stream_r[depth] = [
                                    rank_map[x] for x in ordered_row
                                ]
                            pos[depth] = 0
                            end[depth] = len(ordered_row)
                        else:
                            pos[depth] = 0
                            end[depth] = 0
                    else:
                        eliminated = enter(
                            depth, mapping, rank_at, stream_v, stream_r,
                            pos, end, deferred,
                        )
                        if eliminated:
                            stats.edge_check_failures += eliminated
                    if dep >= 0:
                        cache_stamp[depth] = stamp[dep]
                        cache_v[depth] = stream_v[depth]
                        if needs_rank[depth]:
                            cache_r[depth] = stream_r[depth]
                        cache_end[depth] = end[depth]
                        cache_elim[depth] = eliminated
                elif kind == _KIND_ROOT:
                    pos[depth] = 0
                    end[depth] = base_len[depth]
                else:
                    eliminated = enter(
                        depth, mapping, rank_at, stream_v, stream_r, pos, end,
                        deferred,
                    )
                    if eliminated:
                        stats.edge_check_failures += eliminated
                break
            else:
                if ancestors is not None:
                    if depth == last and nodes != stamp[depth - 1]:
                        found = depth
                    if found >= depth:
                        found = depth - 1
                    else:
                        failing = acc[depth] or ancestors[slot_vertices[depth]]
                        if depth and found != depth - 1:
                            if failing >> slot_vertices[depth - 1] & 1:
                                acc[depth - 1] |= failing
                            else:
                                acc[depth - 1] = failing
                                pos[depth - 1] = end[depth - 1]
                                stats.backjumps += 1
                    acc[depth] = 0
                depth -= 1
                if depth < 0:
                    stats.nodes = nodes
                    return
                stats.backtracks += 1
                unmapped = slot_vertices[depth]
                used[mapping[unmapped]] = 0
                mapping[unmapped] = -1
