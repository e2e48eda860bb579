"""Triplet-morphology consensus between hierarchical clusterings.

Two hierarchies agree on a triplet when both of their cophenetic
matrices make it isosceles with the same small-base pair (equivalently,
the same apex). Counting agreements over all triplets gives a
granularity-free similarity between clusterings of the same items;
intersecting the agreements yields a consensus ultrametric and hence a
consensus dendrogram.

A signature orders the triplet's three levels with triplets.sort3 and
compares them within a relative tie tolerance. Its apex is the vertex
opposite the first smallest level in (ij, ik, jk) order.

Only inversion-free linkage criteria are allowed as consensus sources:
cophenetic levels of a dendrogram with inversions need not satisfy the
strong triangle inequality, which would make the signatures meaningless.

consensus_table reads its counts off the dendrograms. A triplet's base
pair ab joins at node J(a, b) and its apex c at an ancestor x: levels
h(J), h(x), h(x). With top(v) the highest ancestor of v whose level ties
h(v), ab|c is resolved exactly when c is outside C(top(J(a, b))), the
leaves under it, so entry (p, q) sums n - |C_p| - |C_q| + |C_p & C_q| over
pairs a < b. The rule is exact (no entry is scanned) because heights never
fall up a chain, as linkage floors them, and _tied rounds monotonically in
its upper level, so every node's untied ancestors form a suffix of its chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
from typing import Callable

import numpy as np

from .hierarchy import (
    INVERSION_FREE_CRITERIA,
    Dendrogram,
    _join_nodes,
    linkage,
    minmax_path_closure,
)
from .matrices import DissimilarityMatrix, UltrametricMatrix, _ArrayFieldsEq
from .transforms import check_ultrametric
from .triplets import first_smallest, iter_scan, sort3, triplet_count

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
    (i, j, k, base_i, base_j, apex) in ascending triplet order;
    ultrametric is the consensus ultrametric of the two inputs.
    """

    total_triplets: int
    matched: int
    matched_set: np.ndarray
    skipped_ties: int
    ultrametric: UltrametricMatrix


@dataclass(eq=False)
class ConsensusTable(_ArrayFieldsEq):
    """Pairwise matched-triplet counts for a list of linkage criteria.

    ultrametrics holds the cophenetic matrix of each criterion, in the
    order of criteria.
    """

    criteria: list[str]
    counts: np.ndarray
    ultrametrics: list[UltrametricMatrix] = field(default_factory=list)


def _check_tie_tolerance(tol: float) -> None:
    # from 1 up every two nonnegative levels tie; below 0 only zeros, NaN none
    if not 0 <= tol < 1:
        raise ValueError(f"tie_tolerance must be in [0, 1), got {tol!r}")


def _tied(lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """hi - lo <= tol * hi for levels 0 <= lo <= hi, monotone in hi after rounding."""
    return lo >= (1 - tol) * hi


def _signature_arrays(
    values: np.ndarray, ii: np.ndarray, jj: np.ndarray, kk: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized signatures: (isosceles mask, equilateral mask, apex ids).

    The apex id is the vertex opposite the first smallest pair value, in
    (ij, ik, jk) order; it is meaningful only where the isosceles mask
    holds.
    """
    pairs = values[ii, jj], values[ii, kk], values[jj, kk]
    lo, mid, hi = sort3(*pairs)
    equilateral = _tied(lo, hi, tol)
    isosceles = ~equilateral & _tied(mid, hi, tol) & ~_tied(lo, mid, tol)
    return isosceles, equilateral, first_smallest(lo, pairs, (kk, jj, ii))


def triplet_signature(
    u: UltrametricMatrix,
    i: int,
    j: int,
    k: int,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> TripletSignature:
    """Signature of one triplet; indices may come in any order."""
    _check_tie_tolerance(tie_tolerance)
    if len({i, j, k}) != 3:
        raise ValueError("triplet indices must be pairwise distinct")
    for idx in (i, j, k):
        if not 0 <= idx < u.n:
            raise ValueError(f"index {idx} out of range")
    a, b, c = sorted((i, j, k))
    iso, equi, apex = _signature_arrays(u.values, *np.array([[a], [b], [c]]), tie_tolerance)
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


def _matched_rows(u1: UltrametricMatrix, u2: UltrametricMatrix, tol: float, ii, jj, kk):
    """(i, j, k, base_i, base_j, apex) rows of a window's matched triplets,
    its matched mask and its mask of triplets isosceles on both sides."""
    iso1, _, apex1 = _signature_arrays(u1.values, ii, jj, kk, tol)
    iso2, _, apex2 = _signature_arrays(u2.values, ii, jj, kk, tol)
    both_iso = iso1 & iso2
    matched = both_iso & (apex1 == apex2)
    mi, mj, mk, ma = ii[matched], jj[matched], kk[matched], apex1[matched]
    base_lo = np.where(ma == mk, mi, np.where(ma == mj, mi, mj))
    base_hi = np.where(ma == mk, mj, mk)
    return np.column_stack([mi, mj, mk, base_lo, base_hi, ma]), matched, both_iso


def consensus_scan(
    u1: UltrametricMatrix,
    u2: UltrametricMatrix,
    write: Callable[[list[np.ndarray]], None],
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> tuple[int, UltrametricMatrix]:
    """consensus_count's scan: (skipped_ties, ultrametric), the matched rows streamed.

    write([rows]) takes each window's (m, 6) int64 block of matched rows
    as the scan reaches it, so no more than one window of them is held.
    """
    _check_tie_tolerance(tie_tolerance)
    _check_same_items(u1, u2)
    n = u1.n
    # flat views: 1-D indices make np.minimum.at about 2.5 times faster
    low = np.minimum(u1.values, u2.values).reshape(-1)
    cand = low.copy()

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple:
        rows, matched, both_iso = _matched_rows(u1, u2, tie_tolerance, ii, jj, kk)
        ti, tj, tk = ii[~matched], jj[~matched], kk[~matched]
        pairs = (ti * n + tj, ti * n + tk, tj * n + tk)
        smallest = np.minimum(np.minimum(low[pairs[0]], low[pairs[1]]), low[pairs[2]])
        return rows, int((~both_iso).sum()), pairs, smallest

    skipped = 0
    for rows, skips, pairs, smallest in iter_scan(n, kernel):
        write([rows])
        skipped += skips
        for pair in pairs:
            np.minimum.at(cand, pair, smallest)
        del rows, pairs, smallest  # before the next window is built
    cand = cand.reshape(n, n)
    merged = DissimilarityMatrix(np.minimum(cand, cand.T), list(u1.labels))
    return skipped, minmax_path_closure(merged)


def consensus_count(
    u1: UltrametricMatrix,
    u2: UltrametricMatrix,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> ConsensusReport:
    """Count triplets on which two ultrametrics agree morphologically.

    A triplet matches when both sides make it isosceles-small-base with
    the same base pair. Triplets that are not isosceles on one side or
    the other (equilateral or otherwise tied) are never matched and are
    tallied under skipped_ties. The matched set holds
    (i, j, k, base_i, base_j, apex) rows in ascending triplet order.

    The same scan builds the consensus ultrametric. Every pair starts at
    the elementwise minimum of the two inputs, and each non-matched
    triplet lowers its three pairs to the smallest of the six values it
    involves (a matched triplet would propose the elementwise minimum
    itself). The candidates are then replaced by their min-max path
    closure, so the result is a valid ultrametric, symmetric in the
    arguments. consensus_scan runs the scan; this collects its rows.
    """
    blocks = [np.zeros((0, 6), dtype=np.int64)]
    skipped, ultrametric = consensus_scan(u1, u2, blocks.extend, tie_tolerance)
    rows = np.concatenate(blocks)
    return ConsensusReport(triplet_count(u1.n), rows.shape[0], rows, skipped, ultrametric)


def _check_consensus_args(criteria: list[str], tie_tolerance: float) -> None:
    _check_tie_tolerance(tie_tolerance)
    for crit in criteria:
        if crit not in INVERSION_FREE_CRITERIA:
            raise ValueError(
                f"criterion {crit!r} cannot be used for consensus: it can "
                "produce inversions, whose cophenetic levels are not "
                "ultrametric; use one of "
                f"{', '.join(INVERSION_FREE_CRITERIA)}"
            )


def _tops(h: Dendrogram, heights: np.ndarray, tol: float) -> np.ndarray:
    """top(v) of every node v: its highest ancestor whose level ties h(v)."""
    n = h.n_leaves
    parent = np.full(2 * n - 1, -1)
    for s, m in enumerate(h.merges):
        parent[[m.left, m.right]] = n + s
    top = np.arange(2 * n - 1)
    node = np.arange(n, 2 * n - 2)  # every node a pair can join at, but the root
    up = parent[node]
    while node.size:
        # levels never fall up a chain and _tied rounds monotonically in
        # its upper level, so a node untied from one ancestor is untied
        # from every higher one, and it leaves the walk
        tied = _tied(heights[node], heights[up], tol)
        node, up = node[tied], up[tied]
        top[node] = up
        up = parent[up]
        node, up = node[up >= 0], up[up >= 0]
    return top


def _subtree_sums(h: Dendrogram, leaf_rows: np.ndarray) -> np.ndarray:
    """Rows indexed by node id: leaf_rows, then each merge's two child rows added."""
    n = h.n_leaves
    rows = np.empty((2 * n - 1, leaf_rows.shape[1]), dtype=np.int32)
    rows[:n] = leaf_rows
    for s, m in enumerate(h.merges):
        np.add(rows[m.left], rows[m.right], out=rows[n + s])
    return rows


def consensus_table(
    d: DissimilarityMatrix,
    criteria: list[str],
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> ConsensusTable:
    """Matched-triplet counts between every pair of linkage criteria.

    Each criterion is run once on d; entry (p, q) counts the triplets on
    which criteria p and q agree. The table is symmetric and its diagonal
    equals the total triplet count minus that criterion's tie skips.
    The counts come off the trees by the rule in the module docstring,
    without a triplet scan.
    """
    if not criteria:
        raise ValueError("need at least one criterion")
    if len(set(criteria)) != len(criteria):
        raise ValueError("criteria must be distinct")
    _check_consensus_args(criteria, tie_tolerance)
    n, m = d.n, len(criteria)
    trees = [linkage(d, crit) for crit in criteria]
    upper = np.triu(np.ones((n, n), dtype=bool), 1)
    ultrams, tops = [], []
    for h in trees:
        heights, joins = _join_nodes(h)
        ultrams.append(UltrametricMatrix(heights[joins], list(h.labels)))
        tops.append(_tops(h, heights, tie_tolerance)[joins[upper]])  # each pair's top
    counts = np.zeros((m, m), dtype=np.int64)
    for p, q in itertools.combinations_with_replacement(range(m), 2):
        tp, tq = tops[p], tops[q]
        if p == q:
            count = (n - np.array([1] * n + [g.size for g in trees[p].merges])[tp]).sum()
        else:
            # |C_p(u) & C_q(w)| for every node pair; a root holds all n leaves
            leaves_q = _subtree_sums(trees[q], np.eye(n, dtype=np.int32))
            common = _subtree_sums(trees[p], leaves_q.T)
            count = (n - common[tp, -1] - common[-1, tq] + common[tp, tq]).sum(dtype=np.int64)
        counts[p, q] = counts[q, p] = count
    return ConsensusTable(list(criteria), counts, ultrams)


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
    if not tolerance >= 0:
        raise ValueError("tolerance must be nonnegative")
    as_dissimilarity = DissimilarityMatrix(u.values, list(u.labels))
    # closure(x, z) <= mid on a triple's largest pair (x, z), by the path
    # through y, so u - closure bounds every slack: only a larger gap scans
    gap = (u.values - minmax_path_closure(as_dissimilarity).values).max(initial=0.0)
    report = None if gap <= tolerance else check_ultrametric(as_dissimilarity, tolerance)
    if report:
        i, j, k = report.triples[0]
        raise ValueError(
            f"input is not ultrametric within tolerance {tolerance:g}: "
            f"triple ({i}, {j}, {k}) has slack {report.slack[0]:g} "
            f"({report.slack.size} violating triples in total)"
        )
    return linkage(as_dissimilarity, "single")
