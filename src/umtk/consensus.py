"""Triplet-morphology consensus between hierarchical clusterings.

Two hierarchies agree on a triplet when both of their cophenetic
matrices make it isosceles with the same small-base pair (equivalently,
the same apex). Counting agreements over all triplets gives a
granularity-free similarity between clusterings of the same items;
intersecting the agreements yields a consensus ultrametric and hence a
consensus dendrogram.

Only inversion-free linkage criteria are allowed as consensus sources:
cophenetic levels of a dendrogram with inversions need not satisfy the
strong triangle inequality, which would make the signatures meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hierarchy import (
    INVERSION_FREE_CRITERIA,
    Dendrogram,
    cophenetic,
    linkage,
    minmax_path_closure,
)
from .matrices import DissimilarityMatrix, UltrametricMatrix, _ArrayFieldsEq
from .transforms import check_ultrametric
from .triplets import scan, triplet_count

#: Default relative tolerance for treating two levels as tied.
DEFAULT_TIE_TOLERANCE = 1e-9

SHAPE_ISOSCELES = "isosceles-small-base"
SHAPE_EQUILATERAL = "equilateral"
SHAPE_TIE_OTHER = "tie-other"


@dataclass
class TripletSignature:
    """Morphology of one triplet under an ultrametric.

    shape is isosceles-small-base (strict smallest value, two larger
    values tied), equilateral (all three tied), or tie-other (anything
    else, which cannot arise from an exact ultrametric). base, apex are
    set only for the isosceles shape; base_value is always the smallest
    of the three pair values.
    """

    triplet: tuple[int, int, int]
    shape: str
    base: tuple[int, int] | None
    apex: int | None
    base_value: float


@dataclass(eq=False)
class ConsensusReport(_ArrayFieldsEq):
    """Agreement counts between two ultrametrics over all triplets.

    matched_set is an (matched, 6) int64 array of rows
    (i, j, k, base_i, base_j, apex) in ascending triplet order.
    """

    total_triplets: int
    matched: int
    matched_set: np.ndarray
    skipped_ties: int


@dataclass(eq=False)
class ConsensusTable(_ArrayFieldsEq):
    """Pairwise matched-triplet counts for a list of linkage criteria.

    ultrametrics holds the cophenetic matrix of each criterion, in the
    order of criteria.
    """

    criteria: list[str]
    counts: np.ndarray
    ultrametrics: list[UltrametricMatrix] = field(default_factory=list)


def _tied(a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Elementwise tie test, tolerance relative to the larger magnitude."""
    return np.abs(a - b) <= tol * np.maximum(np.abs(a), np.abs(b))


def _signature_arrays(
    values: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    kk: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized signatures: (isosceles mask, equilateral mask, apex ids).

    The apex id is the vertex opposite the smallest pair value; it is
    meaningful only where the isosceles mask holds.
    """
    vals = np.stack([values[ii, jj], values[ii, kk], values[jj, kk]])
    order = np.argsort(vals, axis=0, kind="stable")
    srt = np.take_along_axis(vals, order, axis=0)
    equilateral = _tied(srt[0], srt[2], tol)
    isosceles = (
        ~equilateral & _tied(srt[1], srt[2], tol) & ~_tied(srt[0], srt[1], tol)
    )
    # pair order in vals is (ij, ik, jk); the opposite vertices are (k, j, i)
    opposite = np.stack([kk, jj, ii])
    apex = np.take_along_axis(opposite, order[:1], axis=0)[0]
    return isosceles, equilateral, apex


def triplet_signature(
    u: UltrametricMatrix,
    i: int,
    j: int,
    k: int,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> TripletSignature:
    """Signature of one triplet; indices may come in any order."""
    if len({i, j, k}) != 3:
        raise ValueError("triplet indices must be pairwise distinct")
    for idx in (i, j, k):
        if not 0 <= idx < u.n:
            raise ValueError(f"index {idx} out of range")
    a, b, c = sorted((i, j, k))
    iso, equi, apex = _signature_arrays(
        u.values,
        np.array([a]),
        np.array([b]),
        np.array([c]),
        tie_tolerance,
    )
    base_value = float(min(u.values[a, b], u.values[a, c], u.values[b, c]))
    if bool(equi[0]):
        return TripletSignature((a, b, c), SHAPE_EQUILATERAL, None, None, base_value)
    if bool(iso[0]):
        apex_id = int(apex[0])
        base = tuple(sorted({a, b, c} - {apex_id}))
        return TripletSignature(
            (a, b, c), SHAPE_ISOSCELES, (base[0], base[1]), apex_id, base_value
        )
    return TripletSignature((a, b, c), SHAPE_TIE_OTHER, None, None, base_value)


def _check_same_items(u1: UltrametricMatrix, u2: UltrametricMatrix) -> None:
    if u1.values.shape != u2.values.shape:
        raise ValueError("ultrametrics must have matching dimensions")
    if u1.labels != u2.labels:
        raise ValueError("ultrametrics must have matching labels")


def consensus_count(
    u1: UltrametricMatrix,
    u2: UltrametricMatrix,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
    workers: int = 1,
) -> ConsensusReport:
    """Count triplets on which two ultrametrics agree morphologically.

    A triplet matches when both sides make it isosceles-small-base with
    the same base pair. Triplets that are not isosceles on one side or
    the other (equilateral or otherwise tied) are never matched and are
    tallied under skipped_ties. The matched set holds
    (i, j, k, base_i, base_j, apex) rows in ascending triplet order.
    """
    _check_same_items(u1, u2)

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple[np.ndarray, int]:
        iso1, _, apex1 = _signature_arrays(u1.values, ii, jj, kk, tie_tolerance)
        iso2, _, apex2 = _signature_arrays(u2.values, ii, jj, kk, tie_tolerance)
        both_iso = iso1 & iso2
        matched = both_iso & (apex1 == apex2)
        mi, mj, mk = ii[matched], jj[matched], kk[matched]
        ma = apex1[matched]
        base_lo = np.where(ma == mk, mi, np.where(ma == mj, mi, mj))
        base_hi = np.where(ma == mk, mj, mk)
        rows = np.column_stack([mi, mj, mk, base_lo, base_hi, ma])
        return rows, int((~both_iso).sum())

    results = scan(u1.n, kernel, workers=workers)
    rows = np.concatenate([np.zeros((0, 6), dtype=np.int64), *(r for r, _ in results)])
    return ConsensusReport(
        triplet_count(u1.n), rows.shape[0], rows, sum(s for _, s in results)
    )


def _require_inversion_free(criteria: list[str]) -> None:
    for crit in criteria:
        if crit not in INVERSION_FREE_CRITERIA:
            raise ValueError(
                f"criterion {crit!r} cannot be used for consensus: it can "
                "produce inversions, whose cophenetic levels are not "
                "ultrametric; use one of "
                f"{', '.join(INVERSION_FREE_CRITERIA)}"
            )


def consensus_table(
    d: DissimilarityMatrix,
    criteria: list[str],
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> ConsensusTable:
    """Matched-triplet counts between every pair of linkage criteria.

    Each criterion is run once on d; entry (p, q) counts the triplets on
    which criteria p and q agree. The table is symmetric and its diagonal
    equals the total triplet count minus that criterion's tie skips.
    """
    if not criteria:
        raise ValueError("need at least one criterion")
    if len(set(criteria)) != len(criteria):
        raise ValueError("criteria must be distinct")
    _require_inversion_free(criteria)
    ultrams = [cophenetic(linkage(d, crit)) for crit in criteria]
    m = len(criteria)

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> np.ndarray:
        sigs = [_signature_arrays(u.values, ii, jj, kk, tie_tolerance) for u in ultrams]
        chunk = np.zeros((m, m), dtype=np.int64)
        for p, (iso_p, _, apex_p) in enumerate(sigs):
            for q in range(p, m):
                iso_q, _, apex_q = sigs[q]
                chunk[p, q] = chunk[q, p] = (iso_p & iso_q & (apex_p == apex_q)).sum()
        return chunk

    counts = sum(scan(d.n, kernel), np.zeros((m, m), dtype=np.int64))
    return ConsensusTable(list(criteria), counts, ultrams)


def consensus_ultrametric(
    u1: UltrametricMatrix,
    u2: UltrametricMatrix,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> UltrametricMatrix:
    """Combine two ultrametrics into their triplet-consensus ultrametric.

    Every triplet proposes candidate levels for its three pairs: the
    elementwise minimum of the two inputs where the triplet is
    morphologically consistent, and the minimum over all six involved
    values where it is not. Each pair keeps its smallest candidate, and
    the resulting matrix is replaced by its min-max path closure so the
    output is a valid ultrametric. The operation is symmetric in its
    arguments. With fewer than three items there are no triplets and the
    elementwise minimum is returned.
    """
    _check_same_items(u1, u2)
    n = u1.n
    if n < 3:
        return UltrametricMatrix(np.minimum(u1.values, u2.values), list(u1.labels))
    cand = np.full((n, n), np.inf)
    np.fill_diagonal(cand, 0.0)

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> None:
        iso1, _, apex1 = _signature_arrays(u1.values, ii, jj, kk, tie_tolerance)
        iso2, _, apex2 = _signature_arrays(u2.values, ii, jj, kk, tie_tolerance)
        consistent = iso1 & iso2 & (apex1 == apex2)
        pairs = ((ii, jj), (ii, kk), (jj, kk))
        if np.any(consistent):
            c = consistent
            for a, b in pairs:
                prop = np.minimum(u1.values[a[c], b[c]], u2.values[a[c], b[c]])
                np.minimum.at(cand, (a[c], b[c]), prop)
        inconsistent = ~consistent
        if np.any(inconsistent):
            t = inconsistent
            six = np.full(int(t.sum()), np.inf)
            for a, b in pairs:
                six = np.minimum(six, u1.values[a[t], b[t]])
                six = np.minimum(six, u2.values[a[t], b[t]])
            for a, b in pairs:
                np.minimum.at(cand, (a[t], b[t]), six)

    scan(n, kernel)
    cand = np.minimum(cand, cand.T)
    merged = DissimilarityMatrix(cand, list(u1.labels))
    return minmax_path_closure(merged)


def consensus_dendrogram(
    u: UltrametricMatrix, tolerance: float | None = None
) -> Dendrogram:
    """Single-linkage dendrogram realizing an ultrametric exactly.

    The input is validated against the strong triangle inequality first
    (tolerance defaults to 1e-9 times the largest level); single linkage
    on a valid ultrametric reproduces its levels as merge heights, so
    cophenetic(result) equals u.
    """
    if tolerance is None:
        tolerance = 1e-9 * float(u.values.max()) if u.values.size else 0.0
    as_dissimilarity = DissimilarityMatrix(u.values, list(u.labels))
    report = check_ultrametric(as_dissimilarity, tolerance)
    if report:
        i, j, k = report.triples[0]
        raise ValueError(
            f"input is not ultrametric within tolerance {tolerance:g}: "
            f"triple ({i}, {j}, {k}) has slack {report.slack[0]:g} "
            f"({report.slack.size} violating triples in total)"
        )
    return linkage(as_dissimilarity, "single")
