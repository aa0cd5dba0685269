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

Root selection runs CandVerify over a whole run of candidates at once
(:func:`verify_candidates`) and hands the chosen root's outcome to the
CPI builder, which counts its rejections per filter with
:func:`record_rejections` instead of verifying the root again.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple

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


def has_cand_verify_verdict(verify: object) -> bool:
    """True iff ``verify`` is :func:`cand_verify`, whose verdict
    :func:`verify_candidates` computes in bulk."""
    return verify is cand_verify


def record_rejections(stats: SearchStats, verified: VerifiedCandidates) -> None:
    """Count ``verified``'s rejections per filter of Algorithm 6 (MND,
    then NLF) without re-running either."""
    stats.filter_mnd_pruned += len(verified.mnd_failed)
    stats.filter_nlf_pruned += len(verified.nlf_failed)
