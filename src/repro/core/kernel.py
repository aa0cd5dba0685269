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
* **backward non-tree edges** are checked once per descend, not once
  per candidate.  A slot with backward neighbors keeps its anchor rows
  as frozensets (``set_rows``: the CPI rows keyed by parent image, or,
  for a slot without an anchor, its whole candidate set under key -1)
  and filters the anchor row by one C-level ``frozenset.intersection``
  per backward edge against the mapped images' neighbor sets.  Those
  sets are the data graph's own (``adj_sets``), so a plan copies no
  adjacency and reads the graph's current rows.  The call is spelled
  ``row.intersection(neighbors)``, not ``row & neighbors``: on a
  shared-memory or mmap'd ``.csr`` graph the neighbors are a
  :class:`~repro.core.shm.SharedGraph` set facade, for which
  ``frozenset.__and__`` returns ``NotImplemented``, so ``&`` would fall
  to the facade's reflected operator and build the result in Python on
  every descend, while ``.intersection`` takes any iterable and probes
  the frozenset in C.  Survivors are sorted back into enumeration order
  and regain their ranks through ``rank_of``.  Slots whose anchor and
  backward images all live strictly above the previous depth reuse the
  filtered stream across consecutive descends outright: only the
  previous depth's candidate varies between them, and it plays no part
  in the row.

Counter semantics match the reference for complete runs: ``nodes``,
``backtracks``, ``backjumps`` and ``embeddings`` are bit-identical (both
engines backjump on the same failing sets, see
:class:`~repro.core.core_match.CPIBacktracker`).  A backward-checked
slot charges its eliminations to ``edge_check_failures`` when it
installs the row, and the enumeration loop then counts only occupied
survivors as ``injectivity_conflicts``.  The reference checks occupancy
first, so a candidate that is both occupied and edge-failing is a
conflict there and an edge failure here; on a run without backjumps the
*sum* of the two counters is identical.  After a backjump skips the
rest of a row the kernel's sum can exceed the reference's, which never
reached those candidates.
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
from itertools import accumulate, chain, count, repeat
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
#: ``_KIND_TREE``/``_KIND_ROOT``/``_KIND_CROSS`` install a slot's row
#: as it stands (two ``indptr`` loads, a cursor reset, one dict probe);
#: ``_KIND_BW`` is any slot with backward edges, which filters its
#: anchor row through ``set_rows`` (with the consecutive-descend stream
#: cache).
_KIND_CROSS = 0
_KIND_TREE = 1
_KIND_ROOT = 2
_KIND_BW = 3

_EMPTY_ROW: array[int] = array("i")
_EMPTY_CROSS: Dict[int, Tuple[array[int], array[int]]] = {}
_EMPTY_SETS: Dict[int, FrozenSet[int]] = {}
_EMPTY_RANKS: Dict[int, int] = {}


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
        "kinds",
        "needs_rank",
        "template_v",
        "template_r",
        "base_len",
        "cache_dep",
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
        #: slots with backward edges additionally carry each anchor row
        #: as a frozenset keyed by the *parent image* (a slot without an
        #: anchor: its candidate set, keyed by its ``parent_vertices``
        #: entry, -1), filtered by one C-level set intersection per
        #: backward edge against the mapped neighbors' adjacency sets
        self.set_rows = set_rows
        #: candidate -> rank in ``candidates[u]`` for those same slots
        #: (survivors of a set intersection lose their CSR position; the
        #: rank chain is restored by one dict probe per survivor)
        self.rank_of = rank_of
        #: failing-set ancestor masks (:func:`failing_set_masks`), or
        #: ``None`` for a stage without a backward edge, which never
        #: backjumps
        self.ancestors = ancestors
        # Static per-depth dispatch for :class:`KernelBacktracker`,
        # derived once with the stage.  ``kinds`` picks each descend's
        # install path; ``needs_rank`` marks depths some later tree slot
        # anchors on — only those track ranks at all.
        # ``template_v``/``template_r`` pre-install the fixed streams (a
        # tree or root slot without backward edges never changes its
        # stream; cross and backward-checked slots rewrite theirs).
        needs_rank = [False] * length
        kinds: List[int] = []
        template_v: List[Sequence[int]] = []
        template_r: List[Sequence[int]] = []
        for depth in range(length):
            mode = modes[depth]
            if mode == MODE_TREE:
                needs_rank[parent_depths[depth]] = True
                template_v.append(flat_v[depth])
                template_r.append(flat_r[depth])
                kind = _KIND_TREE
            elif mode == MODE_ROOT:
                template_v.append(base_v[depth])
                template_r.append(base_r[depth])
                kind = _KIND_ROOT
            else:
                template_v.append(_EMPTY_ROW)
                template_r.append(_EMPTY_ROW)
                kind = _KIND_CROSS
            kinds.append(_KIND_BW if backward[depth] else kind)
        self.kinds = tuple(kinds)
        self.needs_rank = tuple(needs_rank)
        self.template_v = tuple(template_v)
        self.template_r = tuple(template_r)
        self.base_len = tuple(map(len, base_v))
        # A backward-checked slot whose anchor parent and backward
        # images all live strictly above depth-1 recomputes the exact
        # same filtered stream on every consecutive descend (only the
        # depth-1 candidate varies between them).  ``cache_dep`` marks
        # such slots with the deepest depth they depend on; ``extend``
        # reuses the previous stream while that depth's assignment stamp
        # is unchanged.  Backward images mapped by an enclosing stage
        # (cross-stage edges) are constant for a whole ``extend`` call
        # and contribute depth -1.
        depth_of = dict(zip(slot_vertices, count()))
        cache_dep = []
        for depth in range(length):
            if kinds[depth] != _KIND_BW:
                cache_dep.append(-1)
                continue
            deepest = max(
                [parent_depths[depth], *(depth_of.get(w, -1) for w in backward[depth])]
            )
            cache_dep.append(deepest if 0 <= deepest <= depth - 2 else -1)
        self.cache_dep = tuple(cache_dep)

    def with_base(
        self, depth: int, vertices: IntVector, ranks: IntVector
    ) -> "CompiledStage":
        """Copy of this stage with slot ``depth``'s base arrays (and, for
        a backward-checked slot, its frozen candidate set) replaced (the
        root-restriction path); everything else is shared."""

        def swap(rows: Tuple, value: object) -> Tuple:
            return rows[:depth] + (value,) + rows[depth + 1:]

        set_rows = self.set_rows
        if self.backward[depth]:
            set_rows = swap(set_rows, {-1: frozenset(vertices)})

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
            set_rows=set_rows,
            rank_of=self.rank_of,
            ancestors=self.ancestors,
        )


def ranked_rows(
    keys: Sequence[int], rows: Sequence[IntVector], rank: Dict[int, int]
) -> Dict[int, Tuple[IntVector, IntVector]]:
    """A cross-mode slot's rows keyed by parent image, each paired with
    its members' ranks in ``candidates[u]`` (``rank``)."""
    ranks = map(array, repeat("i"), map(map, repeat(rank.__getitem__), rows))
    return dict(zip(keys, zip(rows, ranks)))


def compile_stage(cpi: CPI, ordered: Sequence[OrderedVertex]) -> CompiledStage:
    """Lower one stage's :class:`OrderedVertex` slots to a
    :class:`CompiledStage`.

    Tree-edge rows are concatenated in ``candidates[parent]`` order so a
    parent chosen at rank ``r`` owns the CSR row
    ``[indptr[r], indptr[r+1])`` — the dict probe of the reference path
    becomes two int32 loads.  Rows are stored verbatim (the builders keep
    them sorted ascending and subsets of ``candidates[u]``, which the
    rank lookup below relies on), and every per-row step runs in C
    iterators: the loop below is per slot, not per row.
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
    cross_rows: List[Dict[int, Tuple[IntVector, IntVector]]] = []
    backward: List[Tuple[int, ...]] = []
    set_rows: List[Dict[int, FrozenSet[int]]] = []
    rank_of: List[Dict[int, int]] = []

    for depth, slot in enumerate(ordered):
        u = slot.u
        own = candidates[u]
        parent = slot.tree_parent
        checked = bool(slot.backward_neighbors)
        rank_in_u = (
            dict(zip(own, count())) if parent is not None or checked else _EMPTY_RANKS
        )
        slot_vertices.append(u)
        backward.append(tuple(slot.backward_neighbors))
        if parent is None:
            # an unanchored slot's one row, under its parent_vertices entry
            table: Dict[int, Sequence[int]] = {-1: own}
            modes.append(MODE_ROOT)
            parent_depths.append(-1)
            parent_vertices.append(-1)
            base_v.append(array("i", own))
            base_r.append(array("i", range(len(own))))
            indptrs.append(_EMPTY_ROW)
            flat_vs.append(_EMPTY_ROW)
            flat_rs.append(_EMPTY_ROW)
            cross_rows.append(_EMPTY_CROSS)
        else:
            table = adjacency[u]
            parent_vertices.append(parent)
            base_v.append(_EMPTY_ROW)
            base_r.append(_EMPTY_ROW)
            if parent in depth_of:
                modes.append(MODE_TREE)
                parent_depths.append(depth_of[parent])
                rows = list(map(table.get, candidates[parent], repeat(_EMPTY_ROW)))
                # ``array`` reads a list faster than an iterator
                flat = list(chain.from_iterable(rows))
                indptrs.append(array("i", accumulate(map(len, rows), initial=0)))
                flat_vs.append(array("i", flat))
                flat_rs.append(array("i", list(map(rank_in_u.__getitem__, flat))))
                cross_rows.append(_EMPTY_CROSS)
            else:
                modes.append(MODE_CROSS)
                parent_depths.append(-1)
                indptrs.append(_EMPTY_ROW)
                flat_vs.append(_EMPTY_ROW)
                flat_rs.append(_EMPTY_ROW)
                keys = sorted(table)
                arrays = list(map(array, repeat("i"), map(table.__getitem__, keys)))
                cross_rows.append(ranked_rows(keys, arrays, rank_in_u))
        if checked:
            set_rows.append(dict(zip(table, map(frozenset, table.values()))))
            rank_of.append(rank_in_u)
        else:
            set_rows.append(_EMPTY_SETS)
            rank_of.append(_EMPTY_RANKS)
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
    """Core + forest :class:`CompiledStage` pair plus the data graph's
    neighbor sets.

    Attached to a :class:`~repro.core.matcher.PreparedQuery` (its
    ``kernel`` field) by the matcher when ``engine="kernel"``.  Pool
    workers get it from the plan's shared segment
    (:func:`~repro.core.shm.read_plan_segment` wraps the stage sections
    in place, no recompilation).  Restriction goes through
    :meth:`with_root_candidates` — the same copy-making discipline
    repro-lint R003 enforces for the CPI itself.
    """

    __slots__ = ("core", "forest", "root", "adj_sets")

    def __init__(
        self,
        core: CompiledStage,
        forest: CompiledStage,
        root: int,
        adj_sets: Sequence[AbstractSet[int]],
    ) -> None:
        self.core = core
        self.forest = forest
        self.root = root
        #: the data graph's per-vertex neighbor sets (borrowed, not
        #: copied), which the backward-edge filter intersects
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
                        adj_sets=self.adj_sets,
                    )
        return self


def compile_kernel_plan(
    cpi: CPI,
    core_slots: Sequence[OrderedVertex],
    forest_slots: Sequence[OrderedVertex],
) -> KernelPlan:
    """Compile a prepared plan's stages into a :class:`KernelPlan`.

    The plan borrows the CPI's data graph's neighbor sets; it copies no
    adjacency.
    """
    return KernelPlan(
        core=compile_stage(cpi, core_slots),
        forest=compile_stage(cpi, forest_slots),
        root=cpi.root,
        adj_sets=cpi.data._adj_sets,  # noqa: SLF001 - hot path, documented internal
    )


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
        self._adj_sets = kernel_plan.adj_sets

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

        Each descend (depth 0 first) installs the slot's stream by its
        precomputed kind: a tree slot is two ``indptr`` loads, a root
        slot a cursor reset, a cross slot one dict probe, and a slot with
        backward edges intersects its frozen anchor row with the mapped
        images' neighbor sets (reusing the previous stream wholesale when
        its dependencies are unchanged — see ``CompiledStage.cache_dep``).
        Every candidate in a stream has passed its backward checks, so
        the enumeration loop checks occupancy only.

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
        cross_rows = stage.cross_rows
        kinds = stage.kinds
        needs_rank = stage.needs_rank
        base_len = stage.base_len

        stream_v: List[Sequence[int]] = list(stage.template_v)
        stream_r: List[Sequence[int]] = list(stage.template_r)
        pos = [0] * k
        end = [0] * k
        rank_at = [0] * k
        cache_dep = stage.cache_dep
        stamp = [0] * k
        cache_stamp = [-1] * k
        cache_v: List[Sequence[int]] = list(stage.template_v)
        cache_r: List[Sequence[int]] = list(stage.template_r)
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
        last = k - 1
        depth = 0
        while True:
            # Descend: install slot ``depth``'s candidate stream.
            kind = kinds[depth]
            if kind == _KIND_TREE:
                indptr = indptrs[depth]
                parent_rank = rank_at[parent_depths[depth]]
                pos[depth] = indptr[parent_rank]
                end[depth] = indptr[parent_rank + 1]
            elif kind == _KIND_BW:
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
                else:
                    anchor = parent_vertices[depth]
                    row_set = set_rows[depth].get(
                        mapping[anchor] if anchor >= 0 else anchor
                    )
                    pos[depth] = 0
                    if row_set is None:
                        end[depth] = 0
                        eliminated = 0
                    else:
                        # One C-level set intersection per backward
                        # edge; the eliminated count is charged in bulk.
                        survivors: FrozenSet[int] = row_set
                        for w in backward[depth]:
                            survivors = survivors.intersection(
                                adj_sets[mapping[w]]
                            )
                            if not survivors:
                                break
                        eliminated = len(row_set) - len(survivors)
                        if survivors:
                            ordered_row = sorted(survivors)
                            stream_v[depth] = ordered_row
                            if needs_rank[depth]:
                                rank_map = rank_of[depth]
                                stream_r[depth] = [
                                    rank_map[x] for x in ordered_row
                                ]
                            end[depth] = len(ordered_row)
                        else:
                            end[depth] = 0
                    if dep >= 0:
                        cache_stamp[depth] = stamp[dep]
                        cache_v[depth] = stream_v[depth]
                        if needs_rank[depth]:
                            cache_r[depth] = stream_r[depth]
                        cache_end[depth] = end[depth]
                        cache_elim[depth] = eliminated
                if eliminated:
                    stats.edge_check_failures += eliminated
            elif kind == _KIND_ROOT:
                pos[depth] = 0
                end[depth] = base_len[depth]
            else:
                row = cross_rows[depth].get(mapping[parent_vertices[depth]])
                pos[depth] = 0
                if row is None:
                    end[depth] = 0
                else:
                    stream_v[depth], stream_r[depth] = row
                    end[depth] = len(row[0])
            # Scan: enumerate depth's stream, backtracking upward when
            # it runs out, until a candidate is accepted below the last
            # depth (break to descend) or the stage is exhausted.
            while True:
                u = slot_vertices[depth]
                vs = stream_v[depth]
                p = pos[depth]
                e = end[depth]
                while p < e:
                    v = vs[p]
                    p += 1
                    if used[v]:
                        stats.injectivity_conflicts += 1
                        if ancestors is not None and found < depth:
                            owner = mapping.index(v)
                            acc[depth] |= ancestors[u] | ancestors.get(
                                owner, 1 << owner
                            )
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
                    continue
                break
