"""Candidate filtering (CandVerify, Algorithm 6 / Section A.6).

A data vertex ``v`` can be the image of a query vertex ``u`` only if it
passes, in increasing cost order:

1. **label filter** [19]  — ``l(v) == l(u)``;
2. **degree filter** [19] — ``d(v) >= d(u)``;
3. **maximum neighbor-degree (MND) filter** (Definition A.1, Lemma A.1, the
   paper's new light-weight constant-time filter) —
   ``mnd(v) >= mnd(u)``;
4. **neighborhood label frequency (NLF) filter** [24] — for every label
   ``l`` among ``u``'s neighbors, ``d(v, l) >= d(u, l)``.

The label and degree filters are applied inline by the CPI builders (they
fall out of the candidate-generation loops); :func:`cand_verify` bundles
the MND and NLF checks exactly as Algorithm 6 does.

Optimizer round 2 adds two cheaper l2Match-style pre-checks ahead of
MND/NLF, packaged as :class:`ExtendedCandVerify` (a drop-in ``verify``
callable bound to one (query, data) pair):

5. **label-pair filter** — for every label ``l`` among ``u``'s
   neighbors, the data graph must contain at least one edge connecting
   ``l(u)`` and ``l`` (:meth:`~repro.graph.graph.Graph.label_pair_index`).
   The verdict is independent of ``v``, precomputed once per query
   vertex, and rejects whole candidate sets at constant cost.
6. **neighboring-label (NLI) filter** — the set of labels around ``u``
   must be a subset of the labels around ``v``; both sides are bitmasks
   (:meth:`~repro.graph.graph.Graph.nli_mask`), so the check is one
   integer operation (a strictly weaker but much cheaper form of NLF).

Both are pruning-only: every vertex they reject is also rejected by the
NLF filter, so enabling them never changes the built CPI — only how
cheaply rejected candidates are discarded (and which counter records
the rejection).

Root selection runs CandVerify over a whole run of candidates at once
(:func:`verify_candidates`) and hands the chosen root's outcome to the
CPI builder, which counts its rejections per filter with
:func:`record_rejections` instead of verifying the root again.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional

from ..graph.graph import Graph
from .stats import SearchStats


def label_degree_ok(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Label filter + degree filter."""
    return query.label(u) == data.label(v) and data.degree(v) >= query.degree(u)


def mnd_ok(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Maximum neighbor-degree filter (Lemma A.1)."""
    return data.mnd(v) >= query.mnd(u)


def nlf_ok(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Neighborhood label frequency filter: d(v, l) >= d(u, l) for all l."""
    data_nlf = data.nlf(v)
    for lab, needed in query.nlf(u).items():
        if data_nlf.get(lab, 0) < needed:
            return False
    return True


def cand_verify(query: Graph, data: Graph, u: int, v: int) -> bool:
    """Algorithm 6: the constant-time MND filter, then the NLF filter."""
    if data.mnd(v) < query.mnd(u):
        return False
    return nlf_ok(query, data, u, v)


class VerifiedCandidates(NamedTuple):
    """CandVerify's verdict on a run of label+degree survivors of ``u``.

    ``passed`` keeps the input order; the rejected vertices are split by
    the check of Algorithm 6 that rejected them, which is all a counting
    wrapper needs to attribute them (:func:`record_rejections`).
    """

    passed: List[int]
    mnd_failed: List[int]
    nlf_failed: List[int]

    @property
    def structural(self) -> int:
        """How many vertices were verified."""
        return len(self.passed) + len(self.mnd_failed) + len(self.nlf_failed)


def verify_candidates(
    query: Graph, data: Graph, u: int, vertices: Iterable[int]
) -> VerifiedCandidates:
    """Run :func:`cand_verify` over ``vertices`` for query vertex ``u``."""
    mnd_u = query.mnd(u)
    needed = list(query.nlf(u).items())
    data_mnd, data_nlf = data.mnd, data.nlf
    passed: List[int] = []
    mnd_failed: List[int] = []
    nlf_failed: List[int] = []
    for v in vertices:
        if data_mnd(v) < mnd_u:
            mnd_failed.append(v)
            continue
        have = data_nlf(v)
        for lab, count in needed:
            if have.get(lab, 0) < count:
                nlf_failed.append(v)
                break
        else:
            passed.append(v)
    return VerifiedCandidates(passed, mnd_failed, nlf_failed)


def full_candidate_check(query: Graph, data: Graph, u: int, v: int) -> bool:
    """All four local filters; used for root candidates and baselines."""
    return label_degree_ok(query, data, u, v) and cand_verify(query, data, u, v)


class ExtendedCandVerify:
    """CandVerify preceded by the label-pair and/or NLI filters.

    Bound to one ``(query, data)`` pair at construction: the per-query-
    vertex label-pair verdicts and required NLI masks are precomputed
    once, so the per-candidate cost is one list index plus (for NLI) one
    integer subset test before Algorithm 6 runs.  Instances are created
    fresh per CPI build (and per incremental repair sweep), never cached
    across graph versions.
    """

    __slots__ = ("query", "data", "label_pair", "nli", "pair_ok", "masks")

    def __init__(
        self,
        query: Graph,
        data: Graph,
        label_pair: bool = True,
        nli: bool = True,
    ) -> None:
        self.query = query
        self.data = data
        self.label_pair = label_pair
        self.nli = nli
        self.pair_ok: List[bool] = []
        self.masks: List[Optional[int]] = []
        for u in query.vertices():
            neighbor_labels = query.nlf(u)
            if label_pair:
                lu = query.label(u)
                self.pair_ok.append(
                    all(data.has_label_pair(lu, lab) for lab in neighbor_labels)
                )
            if nli:
                self.masks.append(data.nli_required_mask(neighbor_labels))

    def __call__(self, query: Graph, data: Graph, u: int, v: int) -> bool:
        if self.label_pair and not self.pair_ok[u]:
            return False
        if self.nli:
            required = self.masks[u]
            if required is None or required & ~data.nli_mask(v):
                return False
        return cand_verify(query, data, u, v)


def has_cand_verify_verdict(verify: object) -> bool:
    """True iff ``verify`` accepts exactly what :func:`cand_verify` does
    (the label-pair and NLI filters only reject what NLF rejects)."""
    return verify is cand_verify or isinstance(verify, ExtendedCandVerify)


def record_rejections(
    verify: object,
    stats: SearchStats,
    query: Graph,
    data: Graph,
    u: int,
    verified: VerifiedCandidates,
) -> None:
    """Count ``verified``'s rejections per filter, each under the first
    check of ``verify`` that rejects it (label-pair, NLI, MND, then NLF),
    without re-running NLF.  ``verify`` must pass
    :func:`has_cand_verify_verdict`."""
    mnd_failed, nlf_failed = verified.mnd_failed, verified.nlf_failed
    mnd_pruned, nlf_pruned = len(mnd_failed), len(nlf_failed)
    if isinstance(verify, ExtendedCandVerify):
        if verify.label_pair and not verify.pair_ok[u]:
            stats.filter_label_pair_pruned += mnd_pruned + nlf_pruned
            return
        if verify.nli:
            required = verify.masks[u]
            if required is None:
                stats.filter_nli_pruned += mnd_pruned + nlf_pruned
                return
            nli_mask = data.nli_mask
            mnd_nli = sum(1 for v in mnd_failed if required & ~nli_mask(v))
            nlf_nli = sum(1 for v in nlf_failed if required & ~nli_mask(v))
            stats.filter_nli_pruned += mnd_nli + nlf_nli
            mnd_pruned -= mnd_nli
            nlf_pruned -= nlf_nli
    stats.filter_mnd_pruned += mnd_pruned
    stats.filter_nlf_pruned += nlf_pruned
