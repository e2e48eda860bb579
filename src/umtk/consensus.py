"""Triplet-morphology consensus between hierarchical clusterings.

Two hierarchies agree on a triplet when both of their cophenetic
matrices make it isosceles with the same small-base pair (equivalently,
the same apex). Counting agreements over all triplets gives a
granularity-free similarity between clusterings of the same items;
intersecting the agreements yields a consensus ultrametric and hence a
consensus dendrogram.

A signature orders the triplet's three levels with a stable sort and
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

consensus_scan reads a pair off any two trees that realize its ultrametrics.
The tie skips are C(n, 3) less the table's count, less the triplets the
trees resolve with bases xz and xy. Each is counted at the ordered pair
(x, z): y is in C_q(w) but not in C_p(top_p(J_p(x, z))), w the highest
node on x's chain in q whose top is below J_q(x, z). A non-matched
triplet lowers its pairs to the least of its six levels, so a pair ab
with top T joins all of C(T) at min(u1, u2)(a, b), and nothing joins more:
the consensus ultrametric is the closure of the least such level over
the nodes above each pair's join.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import itertools
from typing import Iterator, NamedTuple

import numpy as np

from .hierarchy import (
    INVERSION_FREE_CRITERIA,
    Dendrogram,
    cophenetic,
    join_nodes,
    linkage,
    minmax_path_closure,
)
from .matrices import DissimilarityMatrix, UltrametricMatrix, _ArrayFieldsEq
from .transforms import check_ultrametric
from .triplets import iter_scan, triplet_count

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
    order of criteria. pair keeps what pair_scan reads: the first two
    criteria's trees as _pair_nodes, and their intersection table.
    """

    criteria: list[str]
    counts: np.ndarray
    ultrametrics: list[UltrametricMatrix] = field(default_factory=list)
    pair: tuple = field(default=(), repr=False, compare=False)

    def pair_scan(self) -> tuple[int, UltrametricMatrix, Iterator[np.ndarray]]:
        """consensus_scan of the first two ultrametrics, off the trees this table built."""
        if not self.pair:
            raise ValueError("the pair scan needs two criteria")
        return _pair_scan(*self.ultrametrics[:2], *self.pair)


def _check_tie_tolerance(tol: float) -> None:
    # from 1 up every two nonnegative levels tie; below 0 only zeros, NaN none
    if not 0 <= tol < 1:
        raise ValueError(f"tie_tolerance must be in [0, 1), got {tol!r}")


def _tied(lo: np.ndarray, hi: np.ndarray, tol: float) -> np.ndarray:
    """hi - lo <= tol * hi for levels 0 <= lo <= hi, monotone in hi after rounding."""
    return lo >= (1 - tol) * hi


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
    pairs = (u.values[a, b], u.values[a, c], u.values[b, c])
    lo, mid, hi = sorted(pairs)  # stable, as triplets.sort3
    base_value = float(lo)
    if _tied(lo, hi, tie_tolerance):
        return TripletSignature((a, b, c), SHAPE_EQUILATERAL, None, None, base_value)
    if _tied(mid, hi, tie_tolerance) and not _tied(lo, mid, tie_tolerance):
        first = pairs.index(lo)  # the first smallest level is the base's
        return TripletSignature((a, b, c), SHAPE_ISOSCELES, ((a, b), (a, c), (b, c))[first],
                                (c, b, a)[first], base_value)
    return TripletSignature((a, b, c), SHAPE_TIE_OTHER, None, None, base_value)


class _Nodes(NamedTuple):
    """A tree as the pair reads it: every node's height and top, and the int32
    node id at which each leaf pair joins (leaf 0 on the diagonal)."""

    tree: Dendrogram
    heights: np.ndarray
    joins: np.ndarray
    top: np.ndarray


def _pair_nodes(h: Dendrogram, tol: float) -> _Nodes:
    heights, joins = join_nodes(h)
    return _Nodes(h, heights, joins, _tops(h, heights, tol))


def _matched_rows(sides: list, ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> np.ndarray:
    """(i, j, k, base_i, base_j, apex) rows of a window's triplets that both
    sides, each a _pair_nodes, resolve with the same apex."""
    n, flat, joins = sides[0].joins.shape[0], np.empty_like(ii), []
    for a, b in ((ii, jj), (ii, kk), (jj, kk)):  # each flat index once, one buffer
        np.multiply(a, n, out=flat)
        flat += b
        joins.append([side.joins.ravel().take(flat) for side in sides])
    codes = []  # the apex's position, 0, 1, 2 for i, j, k, or -1 if unresolved
    for side, (ij, ik, jk) in zip(sides, zip(*joins)):  # two are one node, one below
        codes.append(np.where(ik == jk, 2, np.where(ij == jk, 1, 0)).astype(np.int8))
        codes[-1][side.top.take(np.minimum(np.minimum(ij, ik), jk)) >= np.maximum(ik, jk)] = -1
    matched = np.flatnonzero((codes[0] == codes[1]) & (codes[0] >= 0))  # one mask pass, not four
    codes, i, j, k = codes[0][matched], ii[matched], jj[matched], kk[matched]
    base_i, base_j = np.where(codes == 0, j, i), np.where(codes == 2, j, k)
    return np.column_stack([i, j, k, base_i, base_j, np.choose(codes, (i, j, k))])


def _common(hp: Dendrogram, hq: Dendrogram) -> np.ndarray:
    """|C_p(u) & C_q(w)| for every node pair; a root holds all n leaves."""
    leaves_q = _subtree_sums(hq, np.eye(hq.n_leaves, dtype=np.int32))
    return _subtree_sums(hp, leaves_q.T)


def _skipped_ties(sides: list, common: np.ndarray) -> int:
    """Triplets not resolved by both sides, by the rule in the module docstring;
    common is the _common of their trees."""
    n = sides[0].tree.n_leaves
    (_, _, jp, top_p), (_, _, jq, top_q) = sides
    twice = 0  # the triplets both trees resolve, each counted twice
    for x in range(n):
        tp, tq = top_p[jp[x]], top_q[jq[x]]
        chain = np.flatnonzero(np.bincount(jq[x]))  # x's ancestors, and leaf 0 from the diagonal
        chain[0] = x
        # tops never fall along a chain, so one search finds each w
        w = chain[np.searchsorted(top_q[chain], jq[x]) - 1]
        alike = n - common[tp, -1] - common[-1, tq] + common[tp, tq]  # base xz in both, twice
        shares = alike + 2 * (common[-1, w] - common[tp, w])
        shares[x] = 0
        twice += int(shares.sum(dtype=np.int64))
    return triplet_count(n) - twice // 2


def consensus_scan(
    u1: UltrametricMatrix, u2: UltrametricMatrix, tie_tolerance: float = DEFAULT_TIE_TOLERANCE
) -> tuple[int, UltrametricMatrix, Iterator[np.ndarray]]:
    """consensus_count's parts: (skipped_ties, ultrametric, rows), read off the
    single-linkage trees of u1 and u2 (a ValueError unless each reproduces its input).
    Any trees that realize u1 and u2 give the same parts, so umtk consensus reads
    them off the trees consensus_table built (ConsensusTable.pair_scan).
    rows yields each window's (m, 6) int64 block of matched rows as the caller
    pulls it, so no more than one window of them need be held."""
    _check_tie_tolerance(tie_tolerance)
    if u1.values.shape != u2.values.shape:
        raise ValueError("ultrametrics must have matching dimensions")
    if u1.labels != u2.labels:
        raise ValueError("ultrametrics must have matching labels")
    n, sides = u1.n, []
    for u in (u1, u2):
        d = DissimilarityMatrix(u.values, list(u.labels))
        side = _pair_nodes(linkage(d, "single") if n > 1 else Dendrogram(n, [], d.labels),
                           tie_tolerance)
        if not np.array_equal(side.heights[side.joins], u.values):
            raise ValueError("consensus input is not an ultrametric: no tree reproduces it")
        sides.append(side)
    return _pair_scan(u1, u2, sides, _common(sides[0].tree, sides[1].tree))


def _pair_scan(u1: UltrametricMatrix, u2: UltrametricMatrix, sides: list, common: np.ndarray
               ) -> tuple[int, UltrametricMatrix, Iterator[np.ndarray]]:
    """consensus_scan's parts off sides, the _pair_nodes of trees realizing u1 and u2."""
    n, low = u1.n, np.minimum(u1.values, u2.values)
    merged = np.full((n, n), np.inf)
    for h, _, joins, top in sides:
        # each pair's least low over the tops above its join; the diagonal
        # sets leaf 0, which no pair joins at, to 0
        least = np.full(2 * n - 1, np.inf)
        np.minimum.at(least, top[joins].ravel(), low.ravel())
        for s in range(n - 2, -1, -1):  # parents first: each node takes its ancestors' least
            m = h.merges[s]
            least[[m.left, m.right]] = np.minimum(least[[m.left, m.right]], least[n + s])
        np.minimum(merged, least[joins], out=merged)
    ultrametric = minmax_path_closure(DissimilarityMatrix(merged, list(u1.labels)))
    del low, merged
    skipped = _skipped_ties(sides, common)
    return skipped, ultrametric, iter_scan(n, lambda *triples: _matched_rows(sides, *triples))


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

    The consensus ultrametric lowers the three pairs of each non-matched
    triplet from the elementwise minimum to the least of its six values,
    and takes the min-max path closure (see the module docstring).
    """
    skipped, ultrametric, rows = consensus_scan(u1, u2, tie_tolerance)
    rows = np.concatenate([np.zeros((0, 6), dtype=np.int64), *rows])
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
    top = np.arange(2 * n - 1, dtype=np.int32)
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
    ultrams, tops, sides = [], [], []
    for h in trees:
        side = _pair_nodes(h, tie_tolerance)
        ultrams.append(UltrametricMatrix(side.heights[side.joins], list(h.labels)))
        tops.append(side.top[side.joins[upper]])  # each pair's top
        if len(sides) < 2:  # the pair's, kept for pair_scan
            sides.append(side)
    counts, pair = np.zeros((m, m), dtype=np.int64), ()
    # (0, 1) last: its intersection table is kept for pair_scan, not held while others build
    for p, q in sorted(itertools.combinations_with_replacement(range(m), 2),
                       key=lambda pq: pq == (0, 1)):
        tp, tq = tops[p], tops[q]
        if p == q:
            count = (n - np.array([1] * n + [g.size for g in trees[p].merges])[tp]).sum()
        else:
            common = _common(trees[p], trees[q])
            count = (n - common[tp, -1] - common[-1, tq] + common[tp, tq]).sum(dtype=np.int64)
            if (p, q) == (0, 1):
                pair = (sides, common)
        counts[p, q] = counts[q, p] = count
    return ConsensusTable(list(criteria), counts, ultrams, pair)


def consensus_dendrogram(
    u: UltrametricMatrix, tolerance: float | None = None
) -> Dendrogram:
    """Single-linkage dendrogram realizing an ultrametric exactly.

    The input is validated against the strong triangle inequality
    (tolerance defaults to 1e-9 times the largest level) before the tree
    is returned; single linkage on a valid ultrametric reproduces its
    levels as merge heights, so cophenetic(result) equals u.
    """
    if tolerance is None:
        tolerance = 1e-9 * float(u.values.max()) if u.values.size else 0.0
    if not tolerance >= 0:
        raise ValueError("tolerance must be nonnegative")
    as_dissimilarity = DissimilarityMatrix(u.values, list(u.labels))
    tree = linkage(as_dissimilarity, "single")
    # its cophenetic is the closure, and closure(x, z) <= mid on a triple's largest pair
    # (x, z), by the path through y, so u - closure bounds every slack: only a larger gap scans
    gap = (u.values - cophenetic(tree).values).max(initial=0.0)
    report = None if gap <= tolerance else check_ultrametric(as_dissimilarity, tolerance)
    if report:
        i, j, k = report.triples[0]
        raise ValueError(
            f"input is not ultrametric within tolerance {tolerance:g}: "
            f"triple ({i}, {j}, {k}) has slack {report.slack[0]:g} "
            f"({report.slack.size} violating triples in total)"
        )
    return tree
