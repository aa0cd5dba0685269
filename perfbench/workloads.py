"""The five benchmark workloads: input files, expected answers, serving.

Every workload is a pinned instance (fixed generator seeds and case
indices) whose data-graph vertex ids are relabelled by a permutation
drawn from ``--seed``.  The relabelled instance is isomorphic to the
pinned one, so it does the same matching work while its files, vertex
ids and enumeration order all change with the seed; drawing fresh
instances per seed instead moves the work itself (the dense stream's
cyclic cases differ by up to 30x in cost), which would swamp the bounds.

A workload has three faces:

* ``build(seed, directory)`` writes the input files, in the formats the
  library and the CLI read (``.graph`` text, ``.csr`` binary, query
  manifests, delta streams);
* ``expected(seed, directory)`` computes every answer with the reference
  engine (``CFLMatch(engine="reference")``) — answers that are invariant
  under relabelling (counts, per-delta totals) come from the pinned
  instance once, order-sensitive digests from the relabelled one;
* ``setup``/``requests`` (library) and ``cli_commands``/``cli_answers``
  (``python -m repro.cli``) serve the files and return one answer per
  request, compared against ``expected`` by the runner.
"""

from __future__ import annotations

import hashlib
import json
import random
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, Iterator, List, Sequence, Tuple

from repro.core import CFLMatch
from repro.core.batch import BatchMatcher
from repro.core.dynamic import ContinuousQuery, IncrementalMatcher
from repro.core.parallel import parallel_count
from repro.graph.dynamic import Delta, DynamicGraph, parse_delta_stream
from repro.graph.generators import random_walk_query, synthetic_graph
from repro.graph.graph import Graph
from repro.graph.ingest import write_graph_csr
from repro.graph.io import load_graph, save_graph
from repro.testing.workloads import WorkloadSpec, generate_case
from repro.workloads import load_dataset, mixed_batch_workload
from repro.workloads.queries import QuerySetSpec, generate_query_set

def digest(rows: Sequence[Tuple[int, ...]]) -> str:
    """Order-sensitive digest of materialised embeddings."""
    flat = array("i", chain.from_iterable(rows))
    return f"{len(rows)}:{hashlib.sha256(flat.tobytes()).hexdigest()[:24]}"


def instance_digest(parts: Iterable[Any]) -> str:
    """Digest of a pinned instance: graphs as labels plus sorted edges,
    deltas in their text form."""
    hasher = hashlib.sha256()
    for part in parts:
        if isinstance(part, Delta):
            hasher.update(part.format().encode())
        else:
            hasher.update(repr((list(part.labels), sorted(part.edges()))).encode())
    return hasher.hexdigest()[:16]


def relabel(graph: Graph, rng: random.Random) -> Tuple[Graph, List[int]]:
    """An isomorphic copy with shuffled vertex ids, plus ``old -> new``."""
    perm = list(range(graph.num_vertices))
    rng.shuffle(perm)
    labels = [0] * graph.num_vertices
    for old, new in enumerate(perm):
        labels[new] = graph.labels[old]
    return Graph(labels, [(perm[u], perm[v]) for u, v in graph.edges()]), perm


def _rng(name: str, seed: int, part: object) -> random.Random:
    return random.Random(f"perfbench:{name}:{seed}:{part}")


def _write_queries(queries: Sequence[Graph], directory: Path, stem: str) -> List[str]:
    names = []
    for index, query in enumerate(queries):
        name = f"{stem}-{index:03d}.graph"
        save_graph(query, directory / name)
        names.append(name)
    return names


def _load_queries(directory: Path, names: Sequence[str]) -> List[Graph]:
    cache: Dict[str, Graph] = {}
    for name in names:
        if name not in cache:
            cache[name] = load_graph(directory / name)
    return [cache[name] for name in names]


@dataclass
class CliCommand:
    """One ``python -m repro.cli`` invocation and where its stdout goes."""

    args: List[str]
    stdout: Path


def batch_command(manifest: Path, data: Path, limit: int, out: Path) -> CliCommand:
    """``cfl-match batch`` over a query manifest, JSON report to ``out``."""
    return CliCommand(
        ["batch", str(manifest), "--data", str(data), "--limit", str(limit), "--json"], out
    )


def batch_counts(text: str) -> List[int]:
    """Per-query embedding counts from a ``batch --json`` report."""
    return [result["embeddings"] for result in json.loads(text)["results"]]


class Workload:
    """Base class: one pinned instance served through library and CLI."""

    name = ""
    why = ""
    #: ``expected`` depends on the seed's relabelling, not only on the
    #: pinned instance
    seed_dependent = False
    #: a pass serves many small requests, so their latency percentiles
    #: (``query_p50_ms``, ``query_tail_ms``) say something ``wall_s`` does not
    request_latency = False
    #: ``instance_digest`` of the pinned instance: the inputs come from the
    #: generators under ``src/``, and a change there must not silently
    #: change what two commits are compared on
    pinned = ""

    def check_pinned(self, parts: Iterable[Any]) -> None:
        got = instance_digest(parts)
        if got != self.pinned:
            raise RuntimeError(
                f"{self.name}: the generators no longer reproduce the pinned "
                f"instance (digest {got}, pinned {self.pinned})"
            )

    def build(self, seed: int, directory: Path) -> None:
        raise NotImplementedError

    def expected(self, seed: int, directory: Path) -> Dict[str, List[Any]]:
        raise NotImplementedError

    def setup(self, directory: Path) -> Any:
        raise NotImplementedError

    def requests(self, state: Any) -> Iterator[Callable[[], Any]]:
        raise NotImplementedError

    def answer(self, result: Any) -> Any:
        """The checkable answer of one request's raw result."""
        return result

    def cli_commands(self, directory: Path, out: Path) -> List[CliCommand]:
        raise NotImplementedError

    def cli_answers(self, texts: List[str]) -> List[Any]:
        raise NotImplementedError

    def layer_counts(self, state: Any, results: List[Any]) -> Dict[str, float]:
        """Serving-object counters read after a traced pass."""
        return {}

    def extra(self, directory: Path) -> Tuple[Dict[str, float], List[Any]]:
        """Traced runs only: further per-layer measurements and their
        answers (checked against ``expected(...)["extra"]``)."""
        return {}, []


# ----------------------------------------------------------------------
# paper-protein
# ----------------------------------------------------------------------
class PaperProtein(Workload):
    name = "paper-protein"
    why = ("the paper's HPRD/Yeast q12/q50 query sets, all distinct, so the "
           "plan cache never hits: HPRD queries are preparation-bound, Yeast q50 "
           "ones leaf-enumeration-bound")
    graphs = ("hprd", "yeast")
    pinned = "64be0dfe44fe0c81"
    request_latency = True
    seed = 7
    sets = ((12, True), (12, False), (50, True), (50, False))
    #: queries per set (the paper uses 100; 12 keeps a pass near 1 s)
    per_set = 12
    limit = 100_000

    def _pinned(self, dataset: str) -> Tuple[Graph, List[Graph]]:
        data = load_dataset(dataset, scale="full", seed=self.seed)
        queries: List[Graph] = []
        for size, sparse in self.sets:
            spec = QuerySetSpec(size, sparse=sparse, count=self.per_set)
            queries.extend(
                generate_query_set(data, spec, seed=self.seed + size + int(sparse))
            )
        return data, queries

    def build(self, seed, directory):
        pinned = {dataset: self._pinned(dataset) for dataset in self.graphs}
        self.check_pinned(
            part for data, queries in pinned.values() for part in [data, *queries]
        )
        for dataset, (data, queries) in pinned.items():
            save_graph(relabel(data, _rng(self.name, seed, dataset))[0],
                       directory / f"{dataset}.graph")
            names = _write_queries(queries, directory, dataset)
            (directory / f"{dataset}.manifest").write_text("\n".join(names) + "\n")

    def expected(self, seed, directory):
        per_graph = []
        for dataset in self.graphs:
            data, queries = self._pinned(dataset)
            reference = CFLMatch(data, engine="reference")
            per_graph.append([reference.count(q, limit=self.limit) for q in queries])
        return {"library": list(chain.from_iterable(per_graph)), "cli": per_graph[:1]}

    def setup(self, directory):
        pairs = []
        for dataset in self.graphs:
            matcher = CFLMatch(load_graph(directory / f"{dataset}.graph"))
            names = (directory / f"{dataset}.manifest").read_text().split()
            pairs.extend((matcher, q) for q in _load_queries(directory, names))
        return pairs

    def requests(self, state):
        for matcher, query in state:
            yield lambda m=matcher, q=query: list(m.search(q, limit=self.limit))

    def answer(self, result):
        return len(result)

    def cli_commands(self, directory, out):
        dataset = self.graphs[0]
        return [batch_command(directory / f"{dataset}.manifest",
                              directory / f"{dataset}.graph", self.limit, out / "batch.json")]

    def cli_answers(self, texts):
        return [batch_counts(texts[0])]


# ----------------------------------------------------------------------
# dense-core / dense-tree: the dense fuzz stream
# ----------------------------------------------------------------------
DENSE_SPEC = WorkloadSpec(
    scenarios=("dense",), data_vertices=(5000, 5000), query_vertices=(9, 9)
)
DENSE_STREAM_SEED = 123


class _DenseCases(Workload):
    #: stream indices, pinned by the rule each subclass documents
    indices: Tuple[int, ...] = ()

    def build(self, seed, directory):
        cases = {i: generate_case(DENSE_STREAM_SEED, i, DENSE_SPEC) for i in self.indices}
        self.check_pinned(part for case in cases.values() for part in (case.data, case.query))
        for index, case in cases.items():
            data, _ = relabel(case.data, _rng(self.name, seed, index))
            write_graph_csr(data, directory / f"case-{index:02d}.csr")
            save_graph(case.query, directory / f"case-{index:02d}.query.graph")

    def setup(self, directory):
        return [
            (CFLMatch(load_graph(directory / f"case-{i:02d}.csr")),
             load_graph(directory / f"case-{i:02d}.query.graph"))
            for i in self.indices
        ]

    def _case_args(self, directory: Path, index: int) -> List[str]:
        return ["--data", str(directory / f"case-{index:02d}.csr"),
                "--query", str(directory / f"case-{index:02d}.query.graph")]


class DenseCore(_DenseCases):
    name = "dense-core"
    why = ("cyclic 9-vertex queries with 0 embeddings on dense 5000-vertex "
           "graphs: CPI build plus Core-Match search, no emission at all")
    #: the first three cases of the stream whose query is cyclic and has
    #: no embedding (BENCH_kernel.json's case 8 among them)
    indices = (0, 7, 8)
    pinned = "0ccd2525f19db730"

    def expected(self, seed, directory):
        counts = []
        for index in self.indices:
            case = generate_case(DENSE_STREAM_SEED, index, DENSE_SPEC)
            counts.append(CFLMatch(case.data, engine="reference").count(case.query))
        return {"library": counts, "cli": counts[:1]}

    def requests(self, state):
        for matcher, query in state:
            yield lambda m=matcher, q=query: m.count(q)

    def cli_commands(self, directory, out):
        return [CliCommand(["count"] + self._case_args(directory, self.indices[0]),
                           out / "count.txt")]

    def cli_answers(self, texts):
        return [int(texts[0].split()[0].rstrip("+"))]


class DenseTree(_DenseCases):
    name = "dense-tree"
    why = ("a tree query with 217,271 embeddings: a one-vertex core, so "
           "Forest/Leaf-Match and tuple materialisation dominate")
    #: the first case of the stream whose query is a tree with
    #: 10^5..10^6 embeddings
    indices = (2,)
    pinned = "a48729396cfaad1e"
    #: the digest is order-sensitive, so it depends on the relabelling
    seed_dependent = True

    def expected(self, seed, directory):
        digests, counts = [], []
        for matcher, query in self.setup(directory):
            rows = list(CFLMatch(matcher.data, engine="reference").search(query))
            digests.append(digest(rows))
            counts.append(len(rows))
        return {"library": digests, "cli": digests[:1], "extra": counts + counts}

    def requests(self, state):
        for matcher, query in state:
            yield lambda m=matcher, q=query: list(m.search(q))

    def answer(self, result):
        return digest(result)

    def cli_commands(self, directory, out):
        return [CliCommand(["match"] + self._case_args(directory, self.indices[0]),
                           out / "match.txt")]

    def cli_answers(self, texts):
        rows = [
            tuple(int(token.split("->v")[1]) for token in line.split())
            for line in texts[0].splitlines()
            if line and not line.startswith("#")
        ]
        return [digest(rows)]

    def extra(self, directory):
        """Sequential ``count`` against ``parallel_count`` on two workers."""
        (matcher, query), = self.setup(directory)
        started = perf_counter()
        sequential = matcher.count(query)
        sequential_s = perf_counter() - started
        started = perf_counter()
        parallel = parallel_count(matcher.data, query, workers=2)
        parallel_s = perf_counter() - started
        return {
            "core.parallel.count_w2_s": parallel_s,
            "core.parallel.speedup_w2": sequential_s / parallel_s,
        }, [sequential, parallel]


# ----------------------------------------------------------------------
# batch-serve
# ----------------------------------------------------------------------
class BatchServe(Workload):
    name = "batch-serve"
    why = ("1,000 queries drawn from 100 templates: plan-cache and aux "
           "adjacency-cache hits do the work that paper-protein repeats")
    seed = 11
    pinned = "6929105220347404"
    sizes = [4, 5, 6, 8]
    distinct = 100
    total = 1000
    #: queries per ``BatchMatcher.run`` call, i.e. per request
    batch = 200
    limit = 1000

    def _pinned(self) -> Tuple[Graph, List[Graph]]:
        data = load_dataset("hprd", scale="full", seed=self.seed)
        queries = mixed_batch_workload(
            data, sizes=self.sizes, distinct=self.distinct, total=self.total,
            seed=self.seed,
        )
        return data, queries

    def build(self, seed, directory):
        data, queries = self._pinned()
        self.check_pinned([data, *queries])
        write_graph_csr(relabel(data, _rng(self.name, seed, 0))[0], directory / "g.csr")
        index: Dict[int, int] = {}
        for query in queries:
            index.setdefault(id(query), len(index))
        distinct = list({id(q): q for q in queries}.values())
        names = _write_queries(distinct, directory, "q")
        order = [names[index[id(q)]] for q in queries]
        (directory / "batch.manifest").write_text("\n".join(order) + "\n")

    def expected(self, seed, directory):
        data, queries = self._pinned()
        reference = CFLMatch(data, engine="reference", plan_cache_size=0)
        memo: Dict[int, int] = {}
        for query in queries:
            if id(query) not in memo:
                memo[id(query)] = reference.count(query, limit=self.limit)
        counts = [memo[id(q)] for q in queries]
        chunks = [counts[i:i + self.batch] for i in range(0, len(counts), self.batch)]
        return {"library": chunks, "cli": [counts]}

    def setup(self, directory):
        names = (directory / "batch.manifest").read_text().split()
        return BatchMatcher(load_graph(directory / "g.csr")), _load_queries(directory, names)

    def requests(self, state):
        matcher, queries = state
        for start in range(0, len(queries), self.batch):
            chunk = queries[start:start + self.batch]
            yield lambda c=chunk: matcher.run(c, limit=self.limit)

    def answer(self, result):
        return [r.embeddings for r in result.results]

    def cli_commands(self, directory, out):
        return [batch_command(directory / "batch.manifest", directory / "g.csr",
                              self.limit, out / "batch.json")]

    def cli_answers(self, texts):
        return [batch_counts(texts[0])]

    def layer_counts(self, state, results):
        aux = state[0].aux
        return {
            "core.batch.aux_hit_rate": aux.hit_rate,
            "core.batch.aux_bytes": aux.bytes_in_use,
            "core.batch.groups": sum(report.groups for report in results),
        }


# ----------------------------------------------------------------------
# dynamic-watch
# ----------------------------------------------------------------------
class DynamicWatch(Workload):
    name = "dynamic-watch"
    why = ("500 edge flips under a standing 6-vertex query: graph writes "
           "and incremental CPI repair instead of a cold build")
    seed = 8
    pinned = "9aa34fef5d47f50f"
    request_latency = True
    #: 50 vertices per label, as in ``bench_dynamic.py``'s 20,000-vertex
    #: graph, whose kernel-CSR rebuilds after each repair are bound by
    #: memory more than the speed probe is, so its reference-speed time
    #: followed the host's load (see README.md)
    vertices = 5_000
    degree = 6.0
    labels = 100
    query_size = 6
    flips = 500
    limit = 1000

    def _pinned(self) -> Tuple[Graph, Graph, List[Delta]]:
        data = synthetic_graph(
            self.vertices, avg_degree=self.degree, num_labels=self.labels,
            seed=self.seed, label_exponent=0.0,
        )
        rng = random.Random(self.seed)
        query = random_walk_query(data, self.query_size, rng)
        scratch = DynamicGraph.from_graph(data)
        deltas: List[Delta] = []
        while len(deltas) < self.flips:
            u, v = rng.sample(range(self.vertices), 2)
            delta = Delta.remove_edge(u, v) if scratch.has_edge(u, v) else Delta.add_edge(u, v)
            scratch.apply(delta)
            deltas.append(delta)
        return data, query, deltas

    def build(self, seed, directory):
        data, query, deltas = self._pinned()
        self.check_pinned([data, query, *deltas])
        relabelled, perm = relabel(data, _rng(self.name, seed, 0))
        save_graph(relabelled, directory / "g.graph")
        save_graph(query, directory / "q.graph")
        lines = [Delta(d.op, u=perm[d.u], v=perm[d.v]).format() for d in deltas]
        (directory / "deltas.txt").write_text("\n".join(lines) + "\n")

    def expected(self, seed, directory):
        data, query, deltas = self._pinned()
        dynamic = DynamicGraph.from_graph(data)
        totals = []
        for delta in deltas:
            dynamic.apply(delta)
            fresh = CFLMatch(dynamic, engine="reference", plan_cache_size=0)
            totals.append(fresh.count(query, limit=self.limit))
        return {"library": totals, "cli": [totals]}

    def setup(self, directory):
        data = load_graph(directory / "g.graph")
        query = load_graph(directory / "q.graph")
        deltas = parse_delta_stream((directory / "deltas.txt").read_text())
        matcher = IncrementalMatcher(DynamicGraph.from_graph(data))
        return ContinuousQuery(matcher, query, limit=self.limit), deltas

    def requests(self, state):
        watch, deltas = state
        events = watch.feed(deltas)
        for _ in deltas:
            yield lambda: next(events)

    def answer(self, result):
        return result.total

    def cli_commands(self, directory, out):
        return [CliCommand(
            ["watch", str(directory / "q.graph"), "--data", str(directory / "g.graph"),
             "--deltas", str(directory / "deltas.txt"), "--limit", str(self.limit)],
            out / "watch.txt",
        )]

    def cli_answers(self, texts):
        return [[
            int(line.rsplit("total=", 1)[1])
            for line in texts[0].splitlines() if "total=" in line
        ]]

    def layer_counts(self, state, results):
        watch, _ = state
        stats = watch.matcher.prepare(watch.query).build_stats
        return {
            "core.dynamic.cpi_repairs": stats.cpi_repairs,
            "core.dynamic.cpi_rebuilds": stats.cpi_rebuilds,
        }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (PaperProtein(), DenseCore(), DenseTree(), BatchServe(), DynamicWatch())
}
