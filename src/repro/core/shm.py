"""Shared-memory CSR graph store and flat-buffer plan segments.

A parallel worker needs the data graph and the prepared plan.  Pickling
either into every worker would re-materialize it once per process — the
process-level analogue of the Cartesian products the paper postpones.
This module publishes each once per host instead:

* :class:`SharedGraphStore` lays the data graph — its adjacency rows
  as one int32 CSR (:func:`adjacency_csr`) plus the label index, NLF
  tables and MND array — into **one**
  ``multiprocessing.shared_memory`` segment with a versioned header.
  Spawn workers attach by name and get a
  :class:`SharedGraph`: a :class:`~repro.graph.graph.Graph` whose rows
  are ``memoryview`` slices of the segment — zero copies, one
  materialization per host.  The identical byte layout serialized to a
  file (``cfl-match ingest``) is attached via ``mmap`` instead: load
  once, map forever.
* :func:`plan_sections` / :func:`read_plan_segment` ship a prepared
  plan (CPI candidate sets, per-tree-edge adjacency, matching orders,
  and the compiled kernel stages) as contiguous int32 sections in a
  :class:`PlanSegment`.  The worker-side decode wraps views over the
  segment — the bulk arrays (``base_v``/``flat_v``/CSR rows) are
  consumed by :class:`~repro.core.kernel.KernelBacktracker` without
  reconstruction; only query-sized dict metadata is rebuilt.

Layout (all sections native int32, same-host only)::

    [MAGIC, LAYOUT_VERSION, kind, n_sections]        header
    [offset_0, len_0, ... offset_{k-1}, len_{k-1}]   section table (words)
    section_0 ... section_{k-1}                      payload

Lifecycle discipline: segments are owned explicitly, not by the
``resource_tracker`` (see :class:`_Segment` for why tracking is
disabled).  The *creator* must call :meth:`~SharedGraphStore.unlink`
on every exit path — ``unlink`` removes the ``/dev/shm`` name
immediately while POSIX keeps live mappings valid, so attached workers
are never interrupted.  *Attachers* only ever ``close``.  ``close`` is
best-effort: exported memoryviews legitimately outlive it
(``BufferError`` is swallowed), and the mapping is freed with the
process.  Attach helpers are module-level functions so spawn
initializers can reference them by import path (repro-lint R002).
"""

from __future__ import annotations

import mmap
import os
from array import array
from bisect import bisect_left
from collections.abc import Iterable as IterableBase
from collections.abc import Set as SetBase
from itertools import accumulate, chain, count, repeat
from multiprocessing import resource_tracker, shared_memory
from operator import sub

try:  # CPython's POSIX shm syscalls; absent only on non-POSIX builds.
    import _posixshmem  # type: ignore[import-not-found]
except ImportError:  # pragma: no cover - non-POSIX platforms
    _posixshmem = None
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..graph.graph import Graph, GraphError
from .core_match import OrderedVertex, failing_set_masks
from .cpi import CPI, QueryBFSTree
from .kernel import (
    MODE_CROSS,
    MODE_ROOT,
    CompiledStage,
    IntVector,
    KernelPlan,
)
from .stats import monotonic_now

if TYPE_CHECKING:  # pragma: no cover - types only
    from .matcher import CFLMatch, PreparedQuery

__all__ = [
    "GRAPH_SECTION_NAMES",
    "KIND_GRAPH",
    "KIND_PLAN",
    "LAYOUT_VERSION",
    "MAGIC_BYTES",
    "PlanSegment",
    "SEGMENT_PREFIX",
    "SharedGraph",
    "SharedGraphStore",
    "adjacency_csr",
    "attach_graph_store",
    "attach_plan_segment",
    "graph_sections",
    "open_graph_file",
    "pack_segment",
    "plan_sections",
    "read_plan_segment",
    "read_segment",
    "section_sizes",
    "segment_nbytes",
]

#: ``b"CFLM"`` little-endian; the first 4 bytes of every segment/file.
MAGIC = 0x4D4C4643
MAGIC_BYTES = MAGIC.to_bytes(4, "little")
LAYOUT_VERSION = 1
KIND_GRAPH = 1
KIND_PLAN = 2
#: Every named segment this module creates starts with this prefix, so
#: leak tests can assert ``/dev/shm`` is clean afterwards.
SEGMENT_PREFIX = "cflm-"

_WORD = 4  # int32 bytes
_HEADER_WORDS = 4

#: ("shm", segment_name) or ("file", path): how a worker re-opens the
#: store.  Cheap to pickle into initializer args under any start method.
GraphHandle = Tuple[str, str]

Section = Union["array[int]", memoryview]

_segment_counter = count()


def _segment_name() -> str:
    """A fresh, collision-resistant segment name (pid + random + serial)."""
    return (
        f"{SEGMENT_PREFIX}{os.getpid():x}-"
        f"{os.urandom(3).hex()}-{next(_segment_counter):x}"
    )


class _Segment(shared_memory.SharedMemory):
    """``SharedMemory`` with a deterministic, tracker-free lifecycle.

    Python 3.11's constructor registers every segment with the
    ``resource_tracker`` on attach as well as on create.  One tracker
    serves the whole process tree and keeps a *set* of names, not a
    count, so two workers attaching the same segment at once can send
    ``REGISTER, REGISTER, UNREGISTER, UNREGISTER``: the second
    unregister finds no entry and the tracker prints a ``KeyError``
    traceback.  Segment lifetime here is owned explicitly
    (create/attach/close/unlink threaded through pool shutdown and
    dispatcher cancellation), so a segment is never registered: on
    POSIX the constructor opens and maps the segment itself, without the
    stock constructor's ``register`` call, and :meth:`unlink` calls
    ``shm_unlink`` directly instead of the stock unlink-plus-unregister.

    The finalizer also tolerates exported views: plans hold memoryview
    slices of the segment for their whole life, and if the interpreter
    tears the segment down first the stock ``__del__`` raises
    ``BufferError`` into ``sys.stderr`` ("Exception ignored in ...").
    The mapping is reclaimed by the OS at process exit either way, and
    the leak tests treat *any* stderr warning as a failure.
    """

    def __init__(self, name: str, create: bool = False, size: int = 0) -> None:
        if _posixshmem is None:  # pragma: no cover - non-POSIX platforms
            super().__init__(name=name, create=create, size=size)
            try:
                resource_tracker.unregister(self._name, "shared_memory")
            except Exception:
                pass
            return
        posix_name = "/" + name
        flags = os.O_CREAT | os.O_EXCL | os.O_RDWR if create else os.O_RDWR
        fd = _posixshmem.shm_open(posix_name, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            mapped = mmap.mmap(fd, os.fstat(fd).st_size)
        except OSError:
            os.close(fd)
            if create:
                _posixshmem.shm_unlink(posix_name)
            raise
        self._name = posix_name
        self._fd = fd
        self._mmap = mapped
        self._size = len(mapped)
        self._buf = memoryview(mapped)

    def unlink(self) -> None:
        posix_name = getattr(self, "_name", None)
        if _posixshmem is not None and posix_name:
            try:
                _posixshmem.shm_unlink(posix_name)
            except FileNotFoundError:
                pass
        else:  # pragma: no cover - non-POSIX platforms
            super().unlink()

    def __del__(self) -> None:
        try:
            super().__del__()
        except BufferError:
            pass


# ----------------------------------------------------------------------
# Section packing / reading
# ----------------------------------------------------------------------
def segment_nbytes(sections: Sequence[Section]) -> int:
    """Total bytes for a header + section table + payload layout."""
    words = _HEADER_WORDS + 2 * len(sections) + sum(len(s) for s in sections)
    return _WORD * words


def pack_segment(buffer: Union[memoryview, bytearray], kind: int,
                 sections: Sequence[Section]) -> None:
    """Write the versioned header, section table and payload into
    ``buffer`` (the only function in this module that writes a segment:
    after it returns the segment is published and read-only)."""
    total = segment_nbytes(sections)
    words = memoryview(buffer).cast("i")
    if len(words) * _WORD < total:
        raise ValueError(
            f"buffer holds {len(words)} words, layout needs {total // _WORD}"
        )
    if total // _WORD > 2 ** 31 - 1:
        raise ValueError("segment exceeds int32 addressing")
    words[0] = MAGIC
    words[1] = LAYOUT_VERSION
    words[2] = kind
    words[3] = len(sections)
    offset = _HEADER_WORDS + 2 * len(sections)
    for index, section in enumerate(sections):
        words[_HEADER_WORDS + 2 * index] = offset
        words[_HEADER_WORDS + 2 * index + 1] = len(section)
        if len(section):
            words[offset:offset + len(section)] = memoryview(section)
        offset += len(section)


def read_segment(buffer: object) -> Tuple[int, List[memoryview]]:
    """Validate a segment and return ``(kind, section views)``.

    The views are zero-copy int32 slices; they keep the underlying
    buffer alive for as long as any of them is referenced.
    """
    words = memoryview(buffer).cast("i")  # type: ignore[arg-type]
    if len(words) < _HEADER_WORDS:
        raise ValueError("segment too small for a header")
    if words[0] != MAGIC:
        raise ValueError("bad magic: not a cfl-match segment")
    if words[1] != LAYOUT_VERSION:
        raise ValueError(
            f"layout version {words[1]} unsupported (expected {LAYOUT_VERSION})"
        )
    kind = words[2]
    n_sections = words[3]
    if n_sections < 0 or _HEADER_WORDS + 2 * n_sections > len(words):
        raise ValueError("truncated section table")
    views: List[memoryview] = []
    for index in range(n_sections):
        offset = words[_HEADER_WORDS + 2 * index]
        length = words[_HEADER_WORDS + 2 * index + 1]
        if offset < 0 or length < 0 or offset + length > len(words):
            raise ValueError(f"section {index} out of bounds")
        views.append(words[offset:offset + length])
    return kind, views


GRAPH_SECTION_NAMES = (
    "meta",
    "labels",
    "adj_indptr",
    "adj_flat",
    "label_keys",
    "label_indptr",
    "label_flat",
    "nlf_indptr",
    "nlf_flat",
    "mnd",
)

_PLAN_FIXED_NAMES = (
    "meta",
    "query_labels",
    "query_edges",
    "core_order",
    "forest_order",
    "cand_indptr",
    "cand_flat",
    "adjkeys_indptr",
    "adjkeys_flat",
    "adjrows_indptr",
    "adjrows_flat",
)
_STAGE_NAMES = (
    "meta",
    "slot_vertices",
    "modes",
    "parent_depths",
    "parent_vertices",
    "backward_indptr",
    "backward_flat",
    "base_indptr",
    "base_v_flat",
    "base_r_flat",
    "indptr_indptr",
    "indptr_flat",
    "flat_indptr",
    "flat_v_flat",
    "flat_r_flat",
)
_PLAN_FIXED = len(_PLAN_FIXED_NAMES)
_STAGE_SECTIONS = len(_STAGE_NAMES)

# Graph section indices.
_G_META, _G_LABELS, _G_ADJ_INDPTR, _G_ADJ_FLAT = 0, 1, 2, 3
_G_LABEL_KEYS, _G_LABEL_INDPTR, _G_LABEL_FLAT = 4, 5, 6
_G_NLF_INDPTR, _G_NLF_FLAT, _G_MND = 7, 8, 9


def section_names(kind: int, n_sections: int) -> Tuple[str, ...]:
    """Human-readable names for a segment's sections (size accounting)."""
    if kind == KIND_GRAPH:
        return GRAPH_SECTION_NAMES[:n_sections]
    if kind == KIND_PLAN:
        names = list(_PLAN_FIXED_NAMES)
        for prefix in ("core_", "forest_"):
            if len(names) < n_sections:
                names.extend(prefix + name for name in _STAGE_NAMES)
        return tuple(names[:n_sections])
    return tuple(f"section_{i}" for i in range(n_sections))


def section_sizes(buffer: object) -> Dict[str, int]:
    """Per-section byte sizes of a packed segment, header included."""
    kind, views = read_segment(buffer)
    names = section_names(kind, len(views))
    sizes: Dict[str, int] = {
        "header": _WORD * (_HEADER_WORDS + 2 * len(views))
    }
    for name, view in zip(names, views):
        sizes[name] = view.nbytes
    return sizes


# ----------------------------------------------------------------------
# Graph -> sections
# ----------------------------------------------------------------------
def adjacency_csr(graph: Graph) -> Tuple["array[int]", "array[int]"]:
    """``graph``'s adjacency as one int32 CSR pair ``(indptr, flat)``:
    row ``v`` is ``flat[indptr[v]:indptr[v + 1]]``, sorted ascending."""
    rows = graph.adj
    return (
        array("i", accumulate(map(len, rows), initial=0)),
        array("i", list(chain.from_iterable(rows))),
    )


def graph_sections(graph: Graph) -> List[Section]:
    """Lower a data graph to its int32 sections.

    The adjacency is one CSR pair (:func:`adjacency_csr`, rows sorted
    ascending); the label index, per-vertex NLF tables (``(label,
    count)`` pairs sorted by label) and MND array ride along so no
    derived structure is rebuilt worker-side.
    """
    n = graph.num_vertices
    labels = array("i", graph.labels)
    adj_indptr, adj_flat = adjacency_csr(graph)
    index = graph.label_index()
    keys = sorted(index)
    label_keys = array("i", keys)
    label_indptr = array("i", [0])
    label_flat = array("i")
    for key in keys:
        label_flat.extend(index[key])
        label_indptr.append(len(label_flat))
    nlf_indptr = array("i", [0])
    nlf_flat = array("i")
    for v in range(n):
        table = graph.nlf(v)
        for label in sorted(table):
            nlf_flat.append(label)
            nlf_flat.append(table[label])
        nlf_indptr.append(len(nlf_flat) // 2)
    mnd = array("i", (graph.mnd(v) for v in range(n)))
    meta = array("i", [n, graph.num_edges])
    return [
        meta, labels, adj_indptr, adj_flat,
        label_keys, label_indptr, label_flat,
        nlf_indptr, nlf_flat, mnd,
    ]


# ----------------------------------------------------------------------
# Zero-copy row wrappers
# ----------------------------------------------------------------------
class _Rows:
    """Adjacency rows over a CSR pair; row ``v`` is a memoryview slice.

    Slices are cached on first access so hot loops that re-probe the
    same vertex never re-slice.
    """

    __slots__ = ("_indptr", "_flat", "_cache")

    def __init__(self, indptr: memoryview, flat: memoryview) -> None:
        self._indptr = indptr
        self._flat = flat
        self._cache: List[Optional[memoryview]] = [None] * (len(indptr) - 1)

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, v: int) -> memoryview:
        row = self._cache[v]
        if row is None:
            if v < 0:
                raise IndexError(v)
            row = self._flat[self._indptr[v]:self._indptr[v + 1]]
            self._cache[v] = row
        return row

    def __iter__(self) -> Iterator[memoryview]:
        for v in range(len(self._cache)):
            yield self[v]


class _RowSet(SetBase):
    """Set facade over one sorted row: bisect membership, zero copies.

    ``collections.abc.Set`` supplies the operators (including the
    reflected forms, so ``frozenset & row_set`` works); results of set
    algebra materialize as ``frozenset`` via ``_from_iterable``.  ``&``
    with a set of ints (the kernel's short-row path) runs in C instead.
    """

    __slots__ = ("_row",)

    def __init__(self, row: Sequence[int]) -> None:
        self._row = row

    def __contains__(self, value: object) -> bool:
        if not isinstance(value, int):
            return False
        row = self._row
        index = bisect_left(row, value)
        return index < len(row) and row[index] == value

    def __iter__(self) -> Iterator[int]:
        return iter(self._row)

    def __len__(self) -> int:
        return len(self._row)

    def __hash__(self) -> int:
        return self._hash()

    def __and__(self, other: object) -> FrozenSet[int]:
        if not isinstance(other, IterableBase):
            return NotImplemented
        if isinstance(other, (set, frozenset)) and all(
            map(isinstance, other, repeat(int))
        ):
            return frozenset(self._row).intersection(other)
        # ``__contains__`` admits ints only: 1.0 must not match a 1.
        return frozenset(value for value in other if value in self)

    __rand__ = __and__

    @classmethod
    def _from_iterable(cls, iterable: object) -> FrozenSet[int]:
        return frozenset(iterable)  # type: ignore[arg-type]


class _RowSets:
    """Per-vertex :class:`_RowSet` wrappers over the CSR (cached)."""

    __slots__ = ("_rows", "_cache")

    def __init__(self, rows: _Rows) -> None:
        self._rows = rows
        self._cache: List[Optional[_RowSet]] = [None] * len(rows)

    def __len__(self) -> int:
        return len(self._cache)

    def __getitem__(self, v: int) -> _RowSet:
        row_set = self._cache[v]
        if row_set is None:
            if v < 0:
                raise IndexError(v)
            row_set = _RowSet(self._rows[v])
            self._cache[v] = row_set
        return row_set

    def __iter__(self) -> Iterator[_RowSet]:
        for v in range(len(self._cache)):
            yield self[v]


# ----------------------------------------------------------------------
# SharedGraph
# ----------------------------------------------------------------------
class SharedGraph(Graph):
    """A :class:`Graph` whose storage lives in a shared segment.

    Construction never copies the CSR payload: ``labels``, adjacency
    rows, the label index, NLF tables and MND are read through
    memoryview slices, and the kernel bisects the adjacency rows in
    place.  The instance keeps the backing segment (or mmap) alive via
    ``_resources``; it is immutable like every Graph.
    """

    __slots__ = (
        "_adj_indptr",
        "_origin",
        "_resources",
        "_label_sections",
        "_nlf_indptr",
        "_nlf_flat",
        "_nlf_tables",
    )

    @classmethod
    def from_sections(
        cls,
        views: Sequence[memoryview],
        origin: Optional[GraphHandle],
        resources: Tuple[object, ...],
    ) -> "SharedGraph":
        graph = cls.__new__(cls)
        meta = views[_G_META]
        graph.labels = views[_G_LABELS]
        rows = _Rows(views[_G_ADJ_INDPTR], views[_G_ADJ_FLAT])
        graph.adj = rows
        graph._adj_sets = _RowSets(rows)
        graph._num_edges = int(meta[1])
        graph._label_index = None
        graph._degree_index = None
        graph._nlf = None
        graph._mnd = views[_G_MND]
        graph._adj_indptr = views[_G_ADJ_INDPTR]
        graph._signature = None
        graph._label_sections = (
            views[_G_LABEL_KEYS], views[_G_LABEL_INDPTR], views[_G_LABEL_FLAT]
        )
        graph._nlf_indptr = views[_G_NLF_INDPTR]
        graph._nlf_flat = views[_G_NLF_FLAT]
        graph._nlf_tables = {}
        graph._origin = origin
        graph._resources = resources
        return graph

    # -- zero-copy overrides -------------------------------------------
    def label_index(self) -> Dict[int, Sequence[int]]:
        index = self._label_index
        if index is None:
            keys, indptr, flat = self._label_sections
            index = {
                keys[i]: flat[indptr[i]:indptr[i + 1]]
                for i in range(len(keys))
            }
            self._label_index = index
        return index

    def _degrees_of(self, vertices: Sequence[int]) -> List[int]:
        # From the CSR offsets: indexing the adjacency would build one
        # row view per vertex through a Python-level __getitem__.
        indptr = self._adj_indptr
        ends = indptr[1:]
        return list(map(sub, map(ends.__getitem__, vertices),
                        map(indptr.__getitem__, vertices)))

    def nlf(self, v: int) -> Dict[int, int]:
        table = self._nlf_tables.get(v)
        if table is None:
            indptr, flat = self._nlf_indptr, self._nlf_flat
            table = {
                flat[2 * i]: flat[2 * i + 1]
                for i in range(indptr[v], indptr[v + 1])
            }
            self._nlf_tables[v] = table
        return table

    # -- shm plumbing --------------------------------------------------
    def worker_handle(self) -> Optional[GraphHandle]:
        """How another process re-opens this graph (``None`` if the
        backing store is anonymous/not re-attachable)."""
        return self._origin

    def materialize(self) -> Graph:
        """A plain in-process :class:`Graph` copy (diff tests, debug)."""
        return Graph(list(self.labels), list(self.edges()))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return list(self.labels) == list(other.labels) and [
            list(row) for row in self.adj
        ] == [list(row) for row in other.adj]

    __hash__ = Graph.__hash__

    def __repr__(self) -> str:
        origin = self._origin[0] if self._origin else "anonymous"
        return (
            f"SharedGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"backing={origin!r})"
        )


# ----------------------------------------------------------------------
# Stores
# ----------------------------------------------------------------------
class SharedGraphStore:
    """A data graph published in a shared segment or an mmap'd file.

    ``create`` packs and publishes (the creator *owns* the segment and
    must ``unlink`` it); ``attach``/:func:`open_graph_file` open an
    existing store read-only.  ``graph`` is the zero-copy
    :class:`SharedGraph` over the store.
    """

    __slots__ = ("graph", "_segment", "_mmap", "_owner", "_unlinked")

    def __init__(
        self,
        graph: SharedGraph,
        segment: Optional[shared_memory.SharedMemory],
        mapped: Optional[mmap.mmap],
        owner: bool,
    ) -> None:
        self.graph = graph
        self._segment = segment
        self._mmap = mapped
        self._owner = owner
        self._unlinked = False

    @classmethod
    def create(
        cls, source: Graph, name: Optional[str] = None
    ) -> "SharedGraphStore":
        """Publish ``source`` into a fresh named shared-memory segment."""
        sections = graph_sections(source)
        nbytes = segment_nbytes(sections)
        segment = _create_segment(nbytes, name)
        try:
            pack_segment(segment.buf, KIND_GRAPH, sections)
            kind, views = read_segment(segment.buf.toreadonly())
            graph = SharedGraph.from_sections(
                views, ("shm", segment.name), (segment,)
            )
        except BaseException:
            segment.unlink()
            raise
        return cls(graph, segment, None, owner=True)

    @classmethod
    def attach(cls, handle: GraphHandle) -> "SharedGraphStore":
        """Open an existing store from its :data:`GraphHandle`."""
        backing, ref = handle
        if backing == "shm":
            segment = _Segment(name=ref)
            kind, views = read_segment(segment.buf.toreadonly())
            if kind != KIND_GRAPH:
                raise ValueError(f"segment {ref!r} is not a graph store")
            graph = SharedGraph.from_sections(views, handle, (segment,))
            return cls(graph, segment, None, owner=False)
        if backing == "file":
            return open_graph_file(ref)
        raise ValueError(f"unknown store backing {backing!r}")

    @property
    def name(self) -> Optional[str]:
        return self._segment.name if self._segment is not None else None

    def worker_handle(self) -> Optional[GraphHandle]:
        return self.graph.worker_handle()

    def close(self) -> None:
        """Best-effort release of this process's mapping.

        Views exported into live plans keep the mapping pinned; that is
        fine — the mapping dies with the process, and :meth:`unlink` is
        what removes the *name*.
        """
        for resource in (self._segment, self._mmap):
            if resource is not None:
                try:
                    resource.close()
                except BufferError:
                    pass

    def unlink(self) -> None:
        """Remove the segment name (owner only; idempotent).

        Attached processes keep a valid mapping per POSIX semantics;
        new attaches fail, which is exactly the deterministic lifecycle
        the dispatcher wants on cancellation/shutdown paths.
        """
        if self._owner and not self._unlinked and self._segment is not None:
            self._unlinked = True
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedGraphStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.unlink()
        self.close()


def _create_segment(nbytes: int, name: Optional[str]) -> shared_memory.SharedMemory:
    if name is not None:
        return _Segment(name=name, create=True, size=nbytes)
    while True:
        try:
            return _Segment(name=_segment_name(), create=True, size=nbytes)
        except FileExistsError:  # pragma: no cover - astronomically rare
            continue


def attach_graph_store(handle: GraphHandle) -> SharedGraphStore:
    """Module-level attach entry point (spawn initializers import this
    by path; see repro-lint R002)."""
    return SharedGraphStore.attach(handle)


def open_graph_file(path: Union[str, "os.PathLike[str]"]) -> SharedGraphStore:
    """Open an ingested ``.csr`` file as a read-only mmap'd store."""
    with open(path, "rb") as handle:
        mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    views: Optional[List[memoryview]] = None
    try:
        kind, views = read_segment(mapped)
        if kind != KIND_GRAPH:
            raise GraphError(f"{os.fspath(path)!r} is not an ingested graph")
        graph = SharedGraph.from_sections(
            views, ("file", os.path.abspath(os.fspath(path))), (mapped,)
        )
    except BaseException:
        # Drop the section views before closing, else the close raises
        # BufferError ("exported pointers exist") and masks the real error.
        del views
        mapped.close()
        raise
    return SharedGraphStore(graph, None, mapped, owner=False)


# ----------------------------------------------------------------------
# Plan segments
# ----------------------------------------------------------------------
def _stage_sections(stage: CompiledStage) -> List["array[int]"]:
    """One compiled stage as 15 flat sections (CSR-of-rows form).

    ``cross_rows``/``set_rows``/``rank_of`` are *not* shipped: they are
    query-sized dict metadata derivable from the candidate and adjacency
    sections, rebuilt at decode for less than the cost of pickling them.
    """
    meta = array("i", [stage.length])
    backward_indptr = array("i", [0])
    backward_flat = array("i")
    base_indptr = array("i", [0])
    base_v_flat = array("i")
    base_r_flat = array("i")
    indptr_indptr = array("i", [0])
    indptr_flat = array("i")
    flat_indptr = array("i", [0])
    flat_v_flat = array("i")
    flat_r_flat = array("i")
    for depth in range(stage.length):
        backward_flat.extend(stage.backward[depth])
        backward_indptr.append(len(backward_flat))
        base_v_flat.extend(stage.base_v[depth])
        base_r_flat.extend(stage.base_r[depth])
        base_indptr.append(len(base_v_flat))
        indptr_flat.extend(stage.indptrs[depth])
        indptr_indptr.append(len(indptr_flat))
        flat_v_flat.extend(stage.flat_v[depth])
        flat_r_flat.extend(stage.flat_r[depth])
        flat_indptr.append(len(flat_v_flat))
    return [
        meta,
        array("i", stage.slot_vertices),
        array("i", stage.modes),
        array("i", stage.parent_depths),
        array("i", stage.parent_vertices),
        backward_indptr, backward_flat,
        base_indptr, base_v_flat, base_r_flat,
        indptr_indptr, indptr_flat,
        flat_indptr, flat_v_flat, flat_r_flat,
    ]


def plan_sections(plan: "PreparedQuery") -> List["array[int]"]:
    """Lower a prepared plan to its int32 sections.

    Ships the query itself (labels + edges), the matching orders, the
    CPI payload (candidate CSR + per-tree-edge adjacency as a two-level
    CSR keyed by parent image), and — when the plan was compiled for
    the kernel engine — both :class:`CompiledStage` blocks verbatim.
    """
    cpi = plan.cpi
    query = plan.query
    n = query.num_vertices
    kernel = plan.kernel
    meta = array("i", [cpi.root, n, 1 if kernel is not None else 0])
    query_labels = array("i", query.labels)
    query_edges = array("i")
    for u, v in query.edges():
        query_edges.append(u)
        query_edges.append(v)
    cand_indptr = array("i", [0])
    cand_flat = array("i")
    for row in cpi.candidates:
        cand_flat.extend(row)
        cand_indptr.append(len(cand_flat))
    adjkeys_indptr = array("i", [0])
    adjkeys_flat = array("i")
    adjrows_indptr = array("i", [0])
    adjrows_flat = array("i")
    for table in cpi.adjacency:
        for parent_image in sorted(table):
            adjkeys_flat.append(parent_image)
            adjrows_flat.extend(table[parent_image])
            adjrows_indptr.append(len(adjrows_flat))
        adjkeys_indptr.append(len(adjkeys_flat))
    sections: List["array[int]"] = [
        meta,
        query_labels,
        query_edges,
        array("i", plan.core_order),
        array("i", plan.forest_order),
        cand_indptr, cand_flat,
        adjkeys_indptr, adjkeys_flat,
        adjrows_indptr, adjrows_flat,
    ]
    if kernel is not None:
        sections.extend(_stage_sections(kernel.core))
        sections.extend(_stage_sections(kernel.forest))
    return sections


def _decode_stage(
    views: Sequence[memoryview],
    start: int,
    candidates: Sequence[Sequence[int]],
    adjacency: Sequence[Dict[int, memoryview]],
) -> CompiledStage:
    """Rebuild a :class:`CompiledStage` over segment views.

    Bulk arrays (``base_v``/``flat_v``/per-edge CSR) are zero-copy
    slices; only the dict side tables the kernel probes per descend
    (``cross_rows``/``set_rows``/``rank_of``) are reconstructed.
    """
    length = int(views[start][0])
    slot_vertices = tuple(views[start + 1])
    modes = tuple(views[start + 2])
    parent_depths = tuple(views[start + 3])
    parent_vertices = tuple(views[start + 4])
    bw_indptr, bw_flat = views[start + 5], views[start + 6]
    base_indptr = views[start + 7]
    base_v_flat, base_r_flat = views[start + 8], views[start + 9]
    ip_indptr, ip_flat = views[start + 10], views[start + 11]
    fl_indptr = views[start + 12]
    fv_flat, fr_flat = views[start + 13], views[start + 14]
    base_v: List[IntVector] = []
    base_r: List[IntVector] = []
    indptrs: List[IntVector] = []
    flat_v: List[IntVector] = []
    flat_r: List[IntVector] = []
    backward: List[Tuple[int, ...]] = []
    cross_rows: List[Dict[int, Tuple[IntVector, IntVector]]] = []
    set_rows: List[Dict[int, FrozenSet[int]]] = []
    rank_of: List[Dict[int, int]] = []
    for depth in range(length):
        backward.append(tuple(bw_flat[bw_indptr[depth]:bw_indptr[depth + 1]]))
        base_v.append(base_v_flat[base_indptr[depth]:base_indptr[depth + 1]])
        base_r.append(base_r_flat[base_indptr[depth]:base_indptr[depth + 1]])
        indptrs.append(ip_flat[ip_indptr[depth]:ip_indptr[depth + 1]])
        flat_v.append(fv_flat[fl_indptr[depth]:fl_indptr[depth + 1]])
        flat_r.append(fr_flat[fl_indptr[depth]:fl_indptr[depth + 1]])
        u = slot_vertices[depth]
        mode = modes[depth]
        needs_rank = bool(backward[depth]) or mode == MODE_CROSS
        rank: Dict[int, int] = (
            {v: i for i, v in enumerate(candidates[u])} if needs_rank else {}
        )
        if mode != MODE_ROOT and backward[depth]:
            set_rows.append(
                {v_p: frozenset(row) for v_p, row in adjacency[u].items()}
            )
            rank_of.append(rank)
        else:
            set_rows.append({})
            rank_of.append({})
        if mode == MODE_CROSS:
            cross_rows.append(
                {
                    v_p: (row, array("i", [rank[v] for v in row]))
                    for v_p, row in adjacency[u].items()
                }
            )
        else:
            cross_rows.append({})
    return CompiledStage(
        length=length,
        slot_vertices=slot_vertices,
        modes=modes,
        parent_depths=parent_depths,
        parent_vertices=parent_vertices,
        base_v=tuple(base_v),
        base_r=tuple(base_r),
        indptrs=tuple(indptrs),
        flat_v=tuple(flat_v),
        flat_r=tuple(flat_r),
        cross_rows=tuple(cross_rows),
        backward=tuple(backward),
        set_rows=tuple(set_rows),
        rank_of=tuple(rank_of),
        ancestors=failing_set_masks([
            OrderedVertex(u, None if parent < 0 else parent, backward[depth])
            for depth, (u, parent) in enumerate(zip(slot_vertices, parent_vertices))
        ]),
    )


def read_plan_segment(
    matcher: "CFLMatch",
    buffer: object,
    attach_started: Optional[float] = None,
) -> "PreparedQuery":
    """Rebuild a :class:`~repro.core.matcher.PreparedQuery` from a plan
    segment, consuming the bulk arrays in place.

    The compiled kernel stages are *injected* (not recompiled) via
    ``prepare_from_cpi(kernel_plan=...)``; only query-sized metadata
    (decomposition, slots, leaf plan, dict side tables) is recomputed.
    ``attach_started`` (a :func:`~repro.core.stats.monotonic_now`
    stamp) charges the attach + decode wall time to the plan's
    ``segment_attach`` phase timer.
    """
    kind, views = read_segment(buffer)
    if kind != KIND_PLAN:
        raise ValueError("segment is not an encoded plan")
    meta = views[0]
    root, n, has_kernel = int(meta[0]), int(meta[1]), int(meta[2])
    edge_words = views[2]
    query = Graph(
        list(views[1]),
        [
            (edge_words[2 * i], edge_words[2 * i + 1])
            for i in range(len(edge_words) // 2)
        ],
    )
    core_order = list(views[3])
    forest_order = list(views[4])
    cand_indptr, cand_flat = views[5], views[6]
    candidates: List[memoryview] = [
        cand_flat[cand_indptr[u]:cand_indptr[u + 1]] for u in range(n)
    ]
    ak_indptr, ak_flat = views[7], views[8]
    ar_indptr, ar_flat = views[9], views[10]
    adjacency: List[Dict[int, memoryview]] = []
    for u in range(n):
        table: Dict[int, memoryview] = {}
        for k in range(ak_indptr[u], ak_indptr[u + 1]):
            table[ak_flat[k]] = ar_flat[ar_indptr[k]:ar_indptr[k + 1]]
        adjacency.append(table)
    tree = QueryBFSTree.build(query, root)
    cpi = CPI(tree, matcher.data, candidates, adjacency)
    kernel: Optional[KernelPlan] = None
    if has_kernel:
        kernel = KernelPlan(
            core=_decode_stage(views, _PLAN_FIXED, candidates, adjacency),
            forest=_decode_stage(
                views, _PLAN_FIXED + _STAGE_SECTIONS, candidates, adjacency
            ),
            root=root,
            adj_rows=matcher.data.adj,
            adj_sets=matcher.data._adj_sets,
        )
    segment_attach = (
        monotonic_now() - attach_started if attach_started is not None else 0.0
    )
    return matcher.prepare_from_cpi(
        query,
        cpi,
        core_order=core_order,
        forest_order=forest_order,
        kernel_plan=kernel,
        segment_attach=segment_attach,
    )


class PlanSegment:
    """A prepared plan published in a named shared-memory segment.

    Same ownership discipline as :class:`SharedGraphStore`: the parent
    creates and unlinks; workers attach, decode, and only close.
    """

    __slots__ = ("_segment", "_owner", "_unlinked")

    def __init__(
        self, segment: shared_memory.SharedMemory, owner: bool
    ) -> None:
        self._segment = segment
        self._owner = owner
        self._unlinked = False

    @classmethod
    def create(cls, plan: "PreparedQuery") -> "PlanSegment":
        sections = plan_sections(plan)
        segment = _create_segment(segment_nbytes(sections), None)
        try:
            pack_segment(segment.buf, KIND_PLAN, sections)
            return cls(segment, owner=True)
        except BaseException:
            # the caller never received the wrapper, so nobody else can
            # unlink the freshly created segment name
            segment.unlink()
            raise

    @classmethod
    def attach(cls, name: str) -> "PlanSegment":
        segment = _Segment(name=name)
        return cls(segment, owner=False)

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def buffer(self) -> memoryview:
        return self._segment.buf.toreadonly()

    def nbytes(self) -> int:
        return sum(section_sizes(self.buffer).values())

    def close(self) -> None:
        try:
            self._segment.close()
        except BufferError:
            pass

    def unlink(self) -> None:
        if self._owner and not self._unlinked:
            self._unlinked = True
            try:
                self._segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def attach_plan_segment(
    matcher: "CFLMatch",
    name: str,
    attach_started: Optional[float] = None,
) -> Tuple["PreparedQuery", PlanSegment]:
    """Attach + decode a plan segment (module-level for R002).

    Returns the decoded plan and the segment, which the caller must
    keep referenced for the plan's lifetime and ``close`` when done.
    """
    started = monotonic_now() if attach_started is None else attach_started
    segment = PlanSegment.attach(name)
    try:
        plan = read_plan_segment(matcher, segment.buffer, started)
    except BaseException:
        segment.close()
        raise
    return plan, segment
