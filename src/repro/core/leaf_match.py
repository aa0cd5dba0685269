"""Leaf-Match (Section 4.4): enumerate leaf-vertex mappings last.

Given an embedding of the core-set and forest-set, each leaf ``u`` draws
its candidates ``C(u) = N_u^{u.p}(M(u.p)) \\ (M_C u M_T)`` from the CPI.
Leaves are partitioned into *label classes* (Lemma 4.3 guarantees classes
have disjoint candidates, so classes combine by Cartesian product) and
within a class into *NECs* — leaves with the same label and the same
parent, which share one candidate set.

Counting treats an NEC of size m as a combination (multiplying by ``m!``)
instead of enumerating permutations, which is the paper's on-the-fly
compression of redundant leaf Cartesian products.  The kernel engine
goes further and does not explore the combinations either where a
closed form gives their number (:func:`_flat_tally`,
:func:`_closed_tally`); the reference engine's loop stays the oracle.

Enumeration has two forms.  :func:`enumerate_leaf_matches` walks the
product one leaf assignment at a time with nested generators; it is the
reference engine's path and the differential oracle.
:func:`build_leaf_block` instead enumerates each label class's
assignments once per core+forest mapping, in the same nested order, and
:meth:`LeafBlock.stream` produces every embedding of that *block* with a
C-level ``product`` and the plan's ``itemgetter``; the block records
enough per-class node counts to replay the oracle's ``nodes`` counter
exactly for any number of embeddings consumed.  A block is held in
memory, so it is built only when a bound taken from the candidate
counts fits the caller's allowance; otherwise the caller streams that
mapping through the oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, permutations, product
from math import comb, factorial, perm
from operator import itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .cpi import CPI, EMPTY_CANDIDATES
from .stats import SearchStats, WorkBudget

#: Largest leaf-node bound (see :func:`build_leaf_block`) a block may
#: have, whatever the consumer.  A block is held in memory while it is
#: consumed, so this caps that memory and the work done between two of
#: the search's deadline polls; a larger block streams through
#: :func:`enumerate_leaf_matches`.
BLOCK_NODE_CAP = 1 << 14


@dataclass(frozen=True)
class LeafNEC:
    """Neighborhood equivalence class of leaves: same label, same parent."""

    parent: int
    members: Tuple[int, ...]


@dataclass(frozen=True)
class LeafPlan:
    """Query-only leaf structure, computed once per query.

    ``classes[i]`` holds the NECs of one label class; class order is by
    label for determinism.  A class's *assignment tuple* lists its
    leaves' images with NECs in plan order and members in order;
    ``slots[u]`` is leaf ``u``'s position in it.  ``getter`` maps
    ``tuple(mapping)`` followed by every class's assignment tuple, in
    class order, to the embedding in query-vertex order (``None`` when
    there are no leaves).  ``flat`` lists ``(parent, leaf)`` per class
    when every class is a single one-leaf NEC (then an assignment is a
    bare vertex), and is empty otherwise.
    """

    classes: Tuple[Tuple[LeafNEC, ...], ...]
    leaf_vertices: Tuple[int, ...]
    slots: Dict[int, int] = field(default_factory=dict, compare=False, repr=False)
    getter: Optional[Callable[[tuple], Tuple[int, ...]]] = field(
        default=None, compare=False, repr=False
    )
    flat: Tuple[Tuple[int, int], ...] = field(default=(), compare=False, repr=False)


def build_leaf_plan(cpi: CPI, leaves: Sequence[int]) -> LeafPlan:
    """Group leaves into label classes and NECs (Section 4.4)."""
    query = cpi.query
    tree = cpi.tree
    by_label: Dict[int, Dict[int, List[int]]] = {}
    for u in sorted(leaves):
        parent = tree.parent[u]
        assert parent is not None, "a leaf always has a BFS-tree parent"
        by_label.setdefault(query.label(u), {}).setdefault(parent, []).append(u)
    classes = tuple(
        tuple(
            LeafNEC(parent=parent, members=tuple(members))
            for parent, members in sorted(parents.items())
        )
        for _, parents in sorted(by_label.items())
    )
    if not classes:
        return LeafPlan(classes=classes, leaf_vertices=())
    width = query.num_vertices
    layout = list(range(width))
    slots: Dict[int, int] = {}
    for cls in classes:
        slot = width
        for nec in cls:
            for u in nec.members:
                slots[u] = slot - width
                layout[u] = slot
                slot += 1
        width = slot
    # A class with one leaf is one single-member NEC.
    flat: Tuple[Tuple[int, int], ...] = ()
    if len(slots) == len(classes):
        flat = tuple((cls[0].parent, cls[0].members[0]) for cls in classes)
    # A leaf has a parent, so the layout has at least two indices and the
    # getter returns a tuple (a one-index itemgetter returns a scalar).
    return LeafPlan(
        classes=classes,
        leaf_vertices=tuple(sorted(leaves)),
        slots=slots,
        getter=itemgetter(*layout),
        flat=flat,
    )


def _nec_candidates(
    cpi: CPI, nec: LeafNEC, mapping: List[int], used: bytearray
) -> List[int]:
    """``C(u)`` for an NEC: parent's CPI adjacency list minus used vertices."""
    parent_image = mapping[nec.parent]
    row = cpi.adjacency[nec.members[0]].get(parent_image, EMPTY_CANDIDATES)
    return [v for v in row if not used[v]]


def _prepared_classes(
    cpi: CPI, plan: LeafPlan, mapping: List[int], used: bytearray
) -> Optional[List[List[Tuple[LeafNEC, List[int]]]]]:
    """Candidate lists per NEC, sorted by size within each class.

    Returns ``None`` when some NEC cannot possibly be filled, letting
    callers fail fast before any enumeration.
    """
    prepared: List[List[Tuple[LeafNEC, List[int]]]] = []
    for cls in plan.classes:
        rows: List[Tuple[LeafNEC, List[int]]] = []
        for nec in cls:
            candidates = _nec_candidates(cpi, nec, mapping, used)
            if len(candidates) < len(nec.members):
                return None
            rows.append((nec, candidates))
        rows.sort(key=lambda item: len(item[1]))
        prepared.append(rows)
    return prepared


def enumerate_leaf_matches(
    cpi: CPI,
    plan: LeafPlan,
    mapping: List[int],
    used: bytearray,
    stats: Optional[SearchStats] = None,
    budget: Optional[WorkBudget] = None,
) -> Iterator[None]:
    """Yield once per complete leaf assignment, mutating ``mapping``.

    State is restored between yields; classes nest as a Cartesian product
    and NEC assignments expand combinations into permutations.
    ``budget`` is charged one expansion per leaf vertex assigned.
    """
    if not plan.classes:
        yield None
        return
    prepared = _prepared_classes(cpi, plan, mapping, used)
    if prepared is None:
        if stats is not None:
            stats.leaf_shortcircuits += 1
        return

    def assign_class(class_idx: int, nec_idx: int) -> Iterator[None]:
        if class_idx == len(prepared):
            yield None
            return
        rows = prepared[class_idx]
        if nec_idx == len(rows):
            yield from assign_class(class_idx + 1, 0)
            return
        nec, candidates = rows[nec_idx]
        members = nec.members
        available = [v for v in candidates if not used[v]]
        if len(available) < len(members):
            return
        for images in permutations(available, len(members)):
            if budget is not None:
                budget.charge(len(members))
            for u, v in zip(members, images):
                mapping[u] = v
                used[v] = 1
            if stats is not None:
                stats.nodes += len(members)
            yield from assign_class(class_idx, nec_idx + 1)
            for u, v in zip(members, images):
                mapping[u] = -1
                used[v] = 0

    yield from assign_class(0, 0)


class LeafBlock:
    """Every leaf assignment for one completed core+forest mapping.

    ``rows[c]`` lists class ``c``'s assignments in the order
    :func:`enumerate_leaf_matches` reaches them: tuples in the plan's
    slot order, or bare vertices when ``flat``.  ``cum[c][i]`` is the
    number of leaf nodes that class's own traversal has expanded when
    assignment ``i`` completes, and ``totals[c]`` those of its full
    traversal (dead ends after the last assignment included); a flat
    block passes ``cum=None``, since each of its assignments is one
    node and there are no dead ends.  Building stops at the first class
    without assignments, so ``size`` is 0 and later classes are absent.
    ``nodes`` is the oracle's leaf ``nodes`` for the whole block: each
    class is traversed once per assignment of the classes before it.
    """

    __slots__ = ("rows", "cum", "totals", "flat", "size", "nodes")

    def __init__(
        self,
        rows: List[list],
        cum: Optional[List[Sequence[int]]],
        totals: List[int],
        flat: bool,
    ) -> None:
        self.rows = rows
        self.cum = cum
        self.totals = totals
        self.flat = flat
        size = 1
        nodes = 0
        for assignments, total in zip(reversed(rows), reversed(totals)):
            size *= len(assignments)
            nodes = total + len(assignments) * nodes
        self.size = size
        self.nodes = nodes

    def stream(
        self, prefix: Tuple[int, ...], getter: Callable[[tuple], Tuple[int, ...]]
    ) -> Iterator[Tuple[int, ...]]:
        """The block's embeddings in oracle order; ``prefix`` is
        ``tuple(mapping)`` of the core+forest mapping (``size`` > 0)."""
        rows = self.rows
        if self.flat:
            return map(getter, map(prefix.__add__, product(*rows)))
        return map(getter, map(partial(sum, start=prefix), product(*rows)))

    def nodes_through(self, consumed: int) -> int:
        """Leaf nodes the oracle has expanded when its ``consumed``-th
        embedding of this block is yielded (``0 < consumed <= size``).

        The embedding's index, written in the mixed radix of the class
        sizes, gives each class's assignment index ``i``; class ``c``
        contributes ``cum[c][i]`` plus ``i`` full traversals of the
        classes after it.
        """
        cums = self.cum
        if cums is None:
            cums = [range(1, len(assignments) + 1) for assignments in self.rows]
        index = consumed - 1
        nodes = 0
        tail = 0
        for assignments, cum, total in zip(
            reversed(self.rows), reversed(cums), reversed(self.totals)
        ):
            index, digit = divmod(index, len(assignments))
            nodes += cum[digit] + digit * tail
            tail = total + len(assignments) * tail
        return nodes


def _class_assignments(
    rows: List[Tuple[LeafNEC, List[int]]],
    slots: Dict[int, int],
    used: bytearray,
) -> Tuple[List[Tuple[int, ...]], Sequence[int], int]:
    """One class's assignment tuples, cumulative and total node counts.

    Walks the NECs in ``rows`` order exactly as ``assign_class`` does
    within a class (permutations per NEC, the ``used`` filter), writing
    images at the plan's slots.  ``used`` is restored on return.
    """
    if len(rows) == 1:
        # One NEC: its candidates already exclude every used vertex, and
        # its slots are 0..m-1 in member order.
        nec, candidates = rows[0]
        m = len(nec.members)
        assignments = list(permutations(candidates, m))
        total = m * len(assignments)
        return assignments, range(m, total + 1, m), total
    assignments: List[Tuple[int, ...]] = []
    cum: List[int] = []
    scratch = [0] * sum(len(nec.members) for nec, _ in rows)
    nodes = 0
    last = len(rows) - 1

    def visit(depth: int) -> None:
        nonlocal nodes
        nec, candidates = rows[depth]
        members = nec.members
        m = len(members)
        available = [v for v in candidates if not used[v]]
        if len(available) < m:
            return
        positions = [slots[u] for u in members]
        for images in permutations(available, m):
            nodes += m
            for slot, v in zip(positions, images):
                scratch[slot] = v
            if depth == last:
                assignments.append(tuple(scratch))
                cum.append(nodes)
                continue
            for v in images:
                used[v] = 1
            visit(depth + 1)
            for v in images:
                used[v] = 0

    visit(0)
    return assignments, cum, nodes


def build_leaf_block(
    cpi: CPI, plan: LeafPlan, mapping: List[int], used: bytearray, allowance: int
) -> Optional[LeafBlock]:
    """The block of ``mapping``, or ``None`` when the caller should run
    :func:`enumerate_leaf_matches` instead: some NEC cannot be filled
    (the oracle's ``leaf_shortcircuits`` case), or building could cost
    more than ``allowance`` leaf nodes.  ``plan`` must have leaves.

    The cost bound is, summed over classes, the class's leaf count times
    the product of its NECs' falling factorials ``P(|C(u)|, m)`` — what
    the class's traversal would expand if the ``used`` filter never
    removed a candidate.  It is known from the candidate lengths before
    anything is enumerated.  Classes are label-disjoint (Lemma 4.3), so
    each class is enumerated on its own against the core+forest
    ``used`` set.
    """
    if plan.flat:
        # One leaf per class: its candidates are its assignments, one
        # node each.
        adjacency = cpi.adjacency
        rows: List[list] = []
        for parent, leaf in plan.flat:
            row = adjacency[leaf].get(mapping[parent], EMPTY_CANDIDATES)
            candidates = [v for v in row if not used[v]]
            if not candidates:
                return None
            rows.append(candidates)
        totals = [len(candidates) for candidates in rows]
        if sum(totals) > allowance:
            return None
        return LeafBlock(rows, None, totals, True)
    prepared = _prepared_classes(cpi, plan, mapping, used)
    if prepared is None:
        return None
    bound = 0
    for class_rows in prepared:
        assignments = 1
        leaves = 0
        for nec, candidates in class_rows:
            assignments *= perm(len(candidates), len(nec.members))
            leaves += len(nec.members)
        bound += leaves * assignments
    if bound > allowance:
        return None
    rows = []
    cum: List[Sequence[int]] = []
    totals = []
    for class_rows in prepared:
        assignments, class_cum, total = _class_assignments(
            class_rows, plan.slots, used
        )
        rows.append(assignments)
        cum.append(class_cum)
        totals.append(total)
        if not assignments:
            break
    return LeafBlock(rows, cum, totals, False)


def count_leaf_matches(
    cpi: CPI,
    plan: LeafPlan,
    mapping: List[int],
    used: bytearray,
    cap: Optional[int] = None,
    stats: Optional[SearchStats] = None,
    budget: Optional[WorkBudget] = None,
    closed_form: bool = False,
) -> int:
    """Number of leaf assignments without enumerating permutations.

    Per class, NEC combinations are explored with backtracking and each
    NEC of size m contributes a factor ``m!``; classes multiply (Lemma
    4.3).  ``cap`` allows early exit once the count can only exceed it.

    With ``stats``, each explored combination counts its ``m`` member
    assignments as expansions (``nodes``), bumps ``nec_groups`` and
    records the ``m! - 1`` permutations that combination counting never
    enumerates under ``nec_permutations_skipped``; ``budget`` is charged
    the same ``m`` expansions.

    ``closed_form`` (the kernel engine) takes the count and those
    counters from :func:`_closed_tally` instead of exploring the
    combinations, with the same result, counters and budget left over.
    The backtracking loop still decides whenever the tally cannot, and
    whenever the budget would run out inside the mapping's leaves, so a
    truncated count stops at the same point.
    """
    if not plan.classes:
        return 1
    prepared = None
    if closed_form:
        if plan.flat:
            tally = _flat_tally(cpi, plan, mapping, used, cap)
        else:
            prepared = _prepared_classes(cpi, plan, mapping, used)
            tally = None if prepared is None else _closed_tally(prepared, cap)
        if tally is not None and (budget is None or budget.remaining >= tally[1]):
            count, nodes, groups, skipped = tally
            if budget is not None:
                budget.charge(nodes)
            if stats is not None:
                stats.nodes += nodes
                stats.nec_groups += groups
                stats.nec_permutations_skipped += skipped
            return count
    if prepared is None:
        # Also after a closed form short-circuited, which is rare enough
        # that preparing again costs nothing measurable (0 of 4,550
        # mappings per batch-serve pass, 18 of 38,885 on dense-tree).
        prepared = _prepared_classes(cpi, plan, mapping, used)
    if prepared is None:
        if stats is not None:
            stats.leaf_shortcircuits += 1
        return 0
    product = 1
    for rows in prepared:
        class_count = _count_class(rows, 0, used, cap, stats, budget)
        if class_count == 0:
            return 0
        product *= class_count
        if cap is not None and product >= cap:
            return product
    return product


def _count_class(
    rows: List[Tuple[LeafNEC, List[int]]],
    idx: int,
    used: bytearray,
    cap: Optional[int],
    stats: Optional[SearchStats],
    budget: Optional[WorkBudget],
) -> int:
    """One class's count from NEC ``idx`` on, one combination at a time
    (the backtracking loop of :func:`count_leaf_matches`)."""
    if idx == len(rows):
        return 1
    nec, candidates = rows[idx]
    m = len(nec.members)
    available = [v for v in candidates if not used[v]]
    if len(available) < m:
        return 0
    perms = factorial(m)
    total = 0
    for combo in combinations(available, m):
        if budget is not None:
            budget.charge(m)
        if stats is not None:
            stats.nodes += m
            stats.nec_groups += 1
            stats.nec_permutations_skipped += perms - 1
        for v in combo:
            used[v] = 1
        total += perms * _count_class(rows, idx + 1, used, cap, stats, budget)
        for v in combo:
            used[v] = 0
        if cap is not None and total >= cap:
            break
    return total


#: What the backtracking loop of :func:`count_leaf_matches` returns and
#: adds to ``nodes``, ``nec_groups`` and ``nec_permutations_skipped``.
LeafTally = Tuple[int, int, int, int]


def _flat_tally(
    cpi: CPI, plan: LeafPlan, mapping: List[int], used: bytearray,
    cap: Optional[int],
) -> Optional[LeafTally]:
    """The tally of a flat plan, or ``None`` when a leaf has no free
    candidate (the loop's short-circuit).

    Each class is one leaf with ``n`` free candidates: the loop explores
    all ``n`` (one node and one NEC group each), or stops at ``cap``.
    """
    adjacency = cpi.adjacency
    sizes = []
    for parent, leaf in plan.flat:
        row = adjacency[leaf].get(mapping[parent], EMPTY_CANDIDATES)
        n = len([v for v in row if not used[v]])
        if not n:
            return None
        sizes.append(n)
    count = 1
    nodes = 0
    for n in sizes:
        if cap is not None and n > cap:
            n = max(cap, 1)
        nodes += n
        count *= n
        if cap is not None and count >= cap:
            break
    return count, nodes, nodes, 0


def _closed_tally(
    prepared: List[List[Tuple[LeafNEC, List[int]]]], cap: Optional[int]
) -> Optional[LeafTally]:
    """The loop's tally from closed forms (Lemma 4.3), or ``None`` when
    only the loop can tell.

    With ``n`` free candidates for an NEC of ``m`` members, a class of
    one NEC counts ``n!/(n-m)!`` from ``C(n, m)`` combinations, or from
    the ``ceil(cap/m!)`` the loop explores before it reaches ``cap``.
    When a class's NECs have pairwise disjoint candidates, no NEC's
    choice removes another's, so the class counts the product of its
    NECs' counts, and NEC ``i`` is explored once per combination of the
    NECs before it: ``C_0 * ... * C_i`` times.  A class whose NECs share
    a candidate, or whose count reaches ``cap``, returns ``None``.
    """
    count = 1
    nodes = groups = skipped = 0
    for rows in prepared:
        if len(rows) == 1:
            nec, candidates = rows[0]
            m = len(nec.members)
            perms = factorial(m)
            combos = comb(len(candidates), m)
            if cap is not None:
                combos = min(combos, max(1, -(-cap // perms)))
            class_count = combos * perms
            nodes += m * combos
            groups += combos
            skipped += (perms - 1) * combos
        else:
            free = [candidates for _, candidates in rows]
            if len(set().union(*free)) < sum(map(len, free)):
                return None
            class_count = 1
            for nec, candidates in rows:
                class_count *= perm(len(candidates), len(nec.members))
            if cap is not None and class_count >= cap:
                return None
            combos = 1
            for nec, candidates in rows:
                m = len(nec.members)
                combos *= comb(len(candidates), m)
                nodes += m * combos
                groups += combos
                skipped += (factorial(m) - 1) * combos
        count *= class_count
        if cap is not None and count >= cap:
            break
    return count, nodes, groups, skipped
