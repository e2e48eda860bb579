"""Agglomerative hierarchies and the subdominant ultrametric.

The linkage builder runs the classic stored-matrix agglomeration with
recurrence-based updates. Node ids are fixed: leaves are 0..n-1, each
internal node takes the next id n, n+1, ... in merge order. When several
pairs tie at the minimal dissimilarity the pair whose (smaller node id,
larger node id) tuple is lexicographically least is merged, which makes
the whole construction deterministic.

The next pair comes from a nearest-neighbour cache (Muellner 2011,
arXiv:1109.2378): each active row keeps its minimum and the smallest
node id tied there, and a merge rescans only the rows that pointed at
the merged pair, O(n^2) per run unless many do. Values and tie rule are
those of the full-scan loop kept in tests/oracles.py.

The subdominant (maximal lower) ultrametric has one route: the maximal
edge weight on each minimum spanning tree path (Gower & Ross 1969), read
off mst_kruskal's tree, which a dense Prim builds, with the block fill
that cophenetic uses. The Floyd-Warshall and path-enumeration closures
in tests/oracles.py check it exactly, as none of the routes does
arithmetic on the input values.

Criteria
--------
single, complete, average, mcquitty update plain dissimilarities; ward,
centroid, median update squared dissimilarities and their merge heights
are reported as the square root of the squared-space level so all
criteria share the input's units. single, complete, average, mcquitty
and ward are reducible and can never produce inversions; centroid and
median can.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

from .matrices import DissimilarityMatrix, UltrametricMatrix, _SymmetricMatrix

LINKAGE_CRITERIA = ("single", "complete", "average", "mcquitty", "ward",
                    "centroid", "median")

#: Criteria whose merge heights are guaranteed monotone (no inversions).
INVERSION_FREE_CRITERIA = ("single", "complete", "average", "mcquitty", "ward")

_SQUARED_CRITERIA = frozenset({"ward", "centroid", "median"})


class Merge(NamedTuple):
    left: int
    right: int
    height: float
    size: int


@dataclass
class Dendrogram:
    """Binary merge tree over n labeled leaves.

    merges[m] created node id n_leaves + m by joining node ids left and
    right (left < right); height is the merge level and size the number
    of leaves under the new node.
    """

    n_leaves: int
    merges: list[Merge]
    labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        n = self.n_leaves
        if n < 1:
            raise ValueError("dendrogram needs at least one leaf")
        if len(self.labels) != n:
            raise ValueError("label count must equal n_leaves")
        if len(self.merges) != n - 1:
            raise ValueError("a binary dendrogram over n leaves has n-1 merges")
        self.merges = [Merge(int(m[0]), int(m[1]), float(m[2]), int(m[3]))
                       for m in self.merges]
        used = set()
        sizes = {i: 1 for i in range(n)}
        for step, m in enumerate(self.merges):
            new_id = n + step
            for child in (m.left, m.right):
                if not (0 <= child < new_id):
                    raise ValueError(f"merge {step} references invalid node {child}")
                if child in used:
                    raise ValueError(f"node {child} merged twice")
                used.add(child)
            if m.left >= m.right:
                raise ValueError(f"merge {step} children must satisfy left < right")
            if m.height < 0:
                raise ValueError(f"merge {step} has negative height")
            sizes[new_id] = sizes[m.left] + sizes[m.right]
            if m.size != sizes[new_id]:
                raise ValueError(f"merge {step} size field inconsistent")

    @property
    def n_nodes(self) -> int:
        return 2 * self.n_leaves - 1


def linkage(d: DissimilarityMatrix, criterion: str) -> Dendrogram:
    """Agglomerate a dissimilarity matrix under the given criterion.

    At every step the pair of clusters at minimal current dissimilarity
    is merged (ties broken by lexicographically smallest node id pair)
    and distances to the remaining clusters are updated by the
    criterion's recurrence:

    - single:    min(d_ac, d_bc)
    - complete:  max(d_ac, d_bc)
    - average:   (n_a d_ac + n_b d_bc) / (n_a + n_b)
    - mcquitty:  (d_ac + d_bc) / 2
    - ward:      ((n_a+n_c) d_ac + (n_b+n_c) d_bc - n_c d_ab) / (n_a+n_b+n_c)
    - centroid:  (n_a d_ac + n_b d_bc)/(n_a+n_b) - n_a n_b d_ab/(n_a+n_b)^2
    - median:    d_ac/2 + d_bc/2 - d_ab/4

    where ward, centroid and median operate on squared values.
    """
    if criterion not in LINKAGE_CRITERIA:
        raise ValueError(
            f"unknown linkage criterion {criterion!r}; "
            f"expected one of {', '.join(LINKAGE_CRITERIA)}"
        )
    n = d.n
    if n < 2:
        raise ValueError("need at least two items to cluster")
    squared = criterion in _SQUARED_CRITERIA
    work = d.values ** 2 if squared else d.values.copy()
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    node_id = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    by_id = np.arange(n)  # the active slots in increasing node id order
    # each active row's minimum and the smallest node id tied at it
    best_val = work.min(axis=1)
    best_col = (work == best_val[:, None]).argmax(axis=1)  # columns in id order
    merges: list[Merge] = []
    for step in range(n - 1):
        vals = best_val[by_id]
        level = float(vals.min())
        ta = by_id[vals == level]
        tb = best_col[ta]
        lo_ids = np.minimum(node_id[ta], node_id[tb])
        hi_ids = np.maximum(node_id[ta], node_id[tb])
        pick = np.lexsort((hi_ids, lo_ids))[0]
        a, b = sorted((int(ta[pick]), int(tb[pick])))
        best_key = (int(lo_ids[pick]), int(hi_ids[pick]))
        na, nb = int(size[a]), int(size[b])
        d_ab = work[a, b]
        row_a = work[a, :]
        row_b = work[b, :]
        if criterion == "single":
            new_row = np.minimum(row_a, row_b)
        elif criterion == "complete":
            new_row = np.maximum(row_a, row_b)
        elif criterion == "average":
            new_row = (na * row_a + nb * row_b) / (na + nb)
        elif criterion == "mcquitty":
            new_row = 0.5 * (row_a + row_b)
        elif criterion == "ward":
            nc = size
            tot = na + nb + nc
            new_row = ((na + nc) * row_a + (nb + nc) * row_b - nc * d_ab) / tot
        elif criterion == "centroid":
            nab = na + nb
            new_row = (na * row_a + nb * row_b) / nab - (na * nb * d_ab) / nab ** 2
        else:  # median
            new_row = 0.5 * row_a + 0.5 * row_b - 0.25 * d_ab
        height = float(np.sqrt(max(level, 0.0))) if squared else level
        merges.append(Merge(best_key[0], best_key[1], height, na + nb))
        new_row = np.where(active, new_row, np.inf)
        new_row[a] = np.inf
        work[a, :] = new_row
        work[:, a] = new_row
        work[b, :] = np.inf
        work[:, b] = np.inf
        active[b] = False
        node_id[a] = n + step
        size[a] = na + nb
        # Node n + step is the largest id yet and loses every tie, so a row
        # moves to column a only when its new entry there is strictly
        # smaller. Every other row that pointed at a or b is rescanned,
        # row a included: it pointed at b.
        closer = new_row < best_val
        stale = np.flatnonzero(active & ~closer & ((best_col == a) | (best_col == b)))
        best_val[closer] = new_row[closer]
        best_col[closer] = a
        by_id = np.append(by_id[(by_id != a) & (by_id != b)], a)
        best_val[stale], best_col[stale] = _row_minima(work, stale, by_id)
    return Dendrogram(n, merges, list(d.labels))


def _row_minima(
    work: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's minimum over cols and the first of cols tied at it."""
    block = work[np.ix_(rows, cols)]
    low = block.min(axis=1)
    return low, cols[(block == low[:, None]).argmax(axis=1)]


def _join_levels(n: int, joins: Iterable[tuple[int, int, float]], dtype=float) -> np.ndarray:
    """Level at which each leaf pair is first joined, zero diagonal.

    joins yields (i, j, level) in merge order; each unites the clusters
    holding leaves i and j, which must still be apart.
    """
    out = np.zeros((n, n), dtype)
    owner = np.arange(n)
    members = {i: np.array([i]) for i in range(n)}
    for i, j, level in joins:
        a, b = int(owner[i]), int(owner[j])
        left, right = members[a], members.pop(b)
        out[np.ix_(left, right)] = level
        out[np.ix_(right, left)] = level
        owner[right] = a
        members[a] = np.concatenate((left, right))
    return out


def _join_nodes(h: Dendrogram) -> tuple[np.ndarray, np.ndarray]:
    """(heights, joins): each node's height (0 at the leaves) and the int32
    node id at which each leaf pair first joins (leaf 0 on the diagonal)."""
    n = h.n_leaves
    leaf = list(range(n))  # one leaf under each node id
    for m in h.merges:
        leaf.append(leaf[m.left])
    joins = ((leaf[m.left], leaf[m.right], n + s) for s, m in enumerate(h.merges))
    heights = np.array([0.0] * n + [m.height for m in h.merges])
    return heights, _join_levels(n, joins, np.int32)


def cophenetic(h: Dendrogram) -> UltrametricMatrix:
    """Matrix of merge heights at which each leaf pair first joins."""
    heights, joins = _join_nodes(h)
    return UltrametricMatrix(heights[joins], list(h.labels))


def detect_inversions(h: Dendrogram) -> list[tuple[int, float]]:
    """Merges sitting strictly below a merge they directly contain.

    Returns (merge index, height drop) pairs, where the drop is the
    largest excess of a child merge's height over this merge's height.
    Empty for any monotone dendrogram.
    """
    n = h.n_leaves
    heights = [m.height for m in h.merges]
    out: list[tuple[int, float]] = []
    for idx, m in enumerate(h.merges):
        drop = 0.0
        for child in (m.left, m.right):
            if child >= n:
                child_h = heights[child - n]
                if child_h > m.height:
                    drop = max(drop, child_h - m.height)
        if drop > 0.0:
            out.append((idx, drop))
    return out


class EdgeList(NamedTuple):
    """Tree edges (i, j, weight) with i < j, plus their total weight."""

    edges: list[tuple[int, int, float]]
    total_weight: float


def mst_kruskal(d: DissimilarityMatrix) -> EdgeList:
    """Minimum spanning tree over the complete weighted graph of d.

    Edges are ranked by (weight, i, j), which fixes the tree even when
    weights tie: it is the tree Kruskal's algorithm builds in that order.
    A dense Prim finds it in n - 1 numpy steps of O(n), taking each
    step's least edge under the same ranking; the edges are listed in
    that order.
    """
    n = d.n
    if n < 2:
        raise ValueError("need at least two items")
    values = d.values
    items = np.arange(n)
    outside = np.ones(n, dtype=bool)
    outside[0] = False
    dist = values[0].copy()  # each outside item's least edge into the tree
    dist[0] = np.inf
    parent = np.zeros(n, dtype=np.int64)
    tails = np.empty(n - 1, dtype=np.int64)
    for k in range(n - 1):
        # tied edges sharing a lower end hang from that tree item, so the
        # first of them in item order also has the least higher end
        tied = items[dist == dist.min()]
        j = int(tied[np.minimum(parent[tied], tied).argmin()])
        tails[k] = j
        outside[j] = False
        dist[j] = np.inf
        row = values[j]
        # two edges into one item rank as their other ends do
        closer = outside & ((row < dist) | ((row == dist) & (j < parent)))
        dist[closer] = row[closer]
        parent[closer] = j
    heads = parent[tails]
    lo, hi = np.minimum(heads, tails), np.maximum(heads, tails)
    weights = values[lo, hi]
    order = np.lexsort((hi, lo, weights))
    edges = list(zip(lo[order].tolist(), hi[order].tolist(), weights[order].tolist()))
    return EdgeList(edges, float(sum(w for _, _, w in edges)))


def minmax_path_closure(d: DissimilarityMatrix) -> UltrametricMatrix:
    """Subdominant ultrametric: minimize over paths the maximal step.

    The minimax path between two items runs along the minimum spanning
    tree, so each entry is the largest edge weight on the tree path.
    The result is the largest ultrametric lying at or below d
    entrywise; d is unchanged exactly when it already is an ultrametric.
    """
    edges = mst_kruskal(d).edges if d.n > 1 else []
    return UltrametricMatrix(_join_levels(d.n, edges), list(d.labels))


def cophenetic_correlation(d: DissimilarityMatrix, u: _SymmetricMatrix) -> float:
    """Pearson correlation between two matrices' upper-triangle values."""
    if d.values.shape != u.values.shape:
        raise ValueError("matrices must have matching dimensions")
    x = d.condensed()
    y = u.condensed()
    xc = x - x.mean()
    yc = y - y.mean()
    sx = float(np.sqrt((xc ** 2).sum()))
    sy = float(np.sqrt((yc ** 2).sum()))
    if sx == 0.0 or sy == 0.0:
        raise ValueError("constant values: correlation undefined")
    return float((xc * yc).sum() / (sx * sy))


def _quote_label(label: str) -> str:
    if any(ch in label for ch in "(),:;'\" \t\n[]"):
        return "'" + label.replace("'", "''") + "'"
    return label


def export_newick(h: Dendrogram) -> str:
    """Serialize a dendrogram as a rooted binary Newick string.

    Branch lengths are parent height minus child height (leaves sit at
    height zero); children are ordered by their smallest contained leaf
    id. If the dendrogram contains inversions, branch lengths would be
    negative, so a topology-only string is emitted and a warning raised.
    """
    n = h.n_leaves
    with_lengths = True
    if detect_inversions(h):
        warnings.warn(
            "dendrogram has inversions; emitting topology-only newick",
            stacklevel=2,
        )
        with_lengths = False
    if n == 1:
        return _quote_label(h.labels[0]) + ";"
    text: dict[int, str] = {}
    height: dict[int, float] = {}
    min_leaf: dict[int, int] = {}
    for i in range(n):
        text[i] = _quote_label(h.labels[i])
        height[i] = 0.0
        min_leaf[i] = i
    for step, m in enumerate(h.merges):
        node = n + step
        children = sorted((m.left, m.right), key=lambda c: min_leaf[c])
        parts = []
        for child in children:
            if with_lengths:
                length = m.height - height[child]
                parts.append(f"{text[child]}:{format(length, '.17g')}")
            else:
                parts.append(text[child])
            text.pop(child)
        text[node] = "(" + ",".join(parts) + ")"
        height[node] = m.height
        min_leaf[node] = min(min_leaf[m.left], min_leaf[m.right])
    return text[2 * n - 2] + ";"
