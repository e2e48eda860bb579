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

Single linkage is read off mst_kruskal's edges instead: its heights are
their weights in order (Gower & Ross 1969). An untied edge joins the
clusters of its ends; k edges tied at w make k merges, by the same rule,
among the cluster pairs some leaf pair at exactly w joins, found by one
searchsorted of the upper triangle against the tied weights and sorted.
A zero height takes its edge's d[i, j] sign.

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
and ward are reducible, so in exact arithmetic no updated distance falls
below the merge level; rounding can put one an ulp under it, and linkage
floors each updated row at the level, which makes their heights monotone
by construction. centroid and median are not floored and can invert.
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
#: The largest distance whose square is finite: sqrt of the largest double.
_SQUARABLE = 1.3407807929942596e154


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
            if not np.isfinite(m.height):
                raise ValueError(f"merge {step} has non-finite height {m.height!r}")
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

    - single:    min(d_ac, d_bc), whose merges are read off the Prim tree
      under the same tie rule (see the module docstring)
    - complete:  max(d_ac, d_bc)
    - average:   (n_a d_ac + n_b d_bc) / (n_a + n_b)
    - mcquitty:  (d_ac + d_bc) / 2
    - ward:      ((n_a+n_c) d_ac + (n_b+n_c) d_bc - n_c d_ab) / (n_a+n_b+n_c)
    - centroid:  (n_a d_ac + n_b d_bc)/(n_a+n_b) - n_a n_b d_ab/(n_a+n_b)^2
    - median:    d_ac/2 + d_bc/2 - d_ab/4

    where ward, centroid and median operate on squared values. For the
    inversion-free criteria each updated row is floored at the merge
    level (in the same working space), so no later merge sits lower.
    """
    if criterion not in LINKAGE_CRITERIA:
        raise ValueError(
            f"unknown linkage criterion {criterion!r}; "
            f"expected one of {', '.join(LINKAGE_CRITERIA)}"
        )
    n = d.n
    if n < 2:
        raise ValueError("need at least two items to cluster")
    if criterion == "single":
        return Dendrogram(n, _single_merges(d.values), list(d.labels))
    squared = criterion in _SQUARED_CRITERIA
    with np.errstate(over="ignore"):
        work = d.values ** 2 if squared else d.values.copy()
    if squared and np.isinf(work).any():
        raise ValueError(f"{criterion} linkage squares the distances, so none may exceed "
                         f"{_SQUARABLE!r}")
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
        # inactive slots may overflow harmlessly; a live one may not
        with np.errstate(over="ignore", invalid="ignore"):
            if criterion == "complete":
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
        rest = by_id[(by_id != a) & (by_id != b)]  # the live slots besides a and b
        if not np.isfinite(new_row[rest]).all():
            raise ValueError(f"{criterion} linkage overflows on distances this large; "
                             "scale the input down")
        if criterion in INVERSION_FREE_CRITERIA:
            # np.maximum returns its second operand on ties, so values at or
            # above the level (and -0.0 at level 0) keep the recurrence's bits
            new_row = np.maximum(level, new_row)
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
        by_id = np.append(rest, a)
        best_val[stale], best_col[stale] = _row_minima(work, stale, by_id)
    return Dendrogram(n, merges, list(d.labels))


def _single_merges(values: np.ndarray) -> list[Merge]:
    """Single linkage's merges off the minimum spanning tree (see the module docstring)."""
    n = values.shape[0]
    lo, hi, weights = _mst(values)
    node = np.arange(n)  # each leaf's cluster, by node id
    members = {i: np.array([i]) for i in range(n)}
    merges: list[Merge] = []
    runs = np.flatnonzero(np.concatenate(([True], weights[1:] != weights[:-1], [True])))
    tied_weights = weights[runs[:-1][np.diff(runs) > 1]]
    if tied_weights.size:  # the leaf pairs i < j at a tied weight, by value
        flat, low, high = values.ravel(), tied_weights[0], tied_weights[-1]
        pairs = np.flatnonzero(np.triu((values >= low) & (values <= high), 1))  # i * n + j
        near = flat[pairs]
        pairs = pairs[tied_weights.take(np.searchsorted(tied_weights, near), mode="clip") == near]
        pairs = pairs[np.argsort(flat[pairs])]
        ranked = flat[pairs]
    for s, t in zip(runs[:-1].tolist(), runs[1:].tolist()):  # edges s..t-1 share a weight
        if t == s + 1:
            joins = [(node[lo[s]], node[hi[s]])]
        else:
            tied = np.searchsorted(ranked, weights[s]), np.searchsorted(ranked, weights[s], "right")
            ii, jj = np.divmod(pairs[tied[0]:tied[1]], n)
            joins = _tied_joins(node[ii], node[jj], t - s, n + s)
        for x, y in joins:
            x, y = sorted((int(x), int(y)))
            new = n + len(merges)
            members[new] = leaves = np.concatenate((members.pop(x), members.pop(y)))
            node[leaves] = new
            merges.append(Merge(x, y, float(weights[new - n]), leaves.size))
    return merges


def _tied_joins(ca: np.ndarray, cb: np.ndarray, count: int, first: int) -> list[tuple[int, int]]:
    """The count merges of a tied run whose leaf pairs join clusters ca and cb
    (node ids below first, the next one). The least (lower id, higher id) pair
    is the least cluster with a neighbour and its least neighbour, and new ids
    only grow, so one pass over the clusters in id order makes the merges."""
    apart = ca != cb
    ca, cb = ca[apart], cb[apart]
    seen = np.zeros(first, dtype=bool)
    seen[ca] = seen[cb] = True
    ids = np.flatnonzero(seen)  # each slot's node id, ascending
    slot = np.cumsum(seen) - 1
    a, b = slot[ca], slot[cb]
    near = np.zeros((ids.size, ids.size), dtype=bool)
    near[a, b] = near[b, a] = True
    queue, out = list(range(ids.size)), []
    for x in queue:  # a merge appends its slot, under its new id
        if len(out) == count:
            break
        nbrs = np.flatnonzero(near[x])  # empty for a slot merged away
        if nbrs.size:
            y = nbrs[ids[nbrs].argmin()]
            out.append((ids[x], ids[y]))
            near[x] |= near[y]
            near[y] = near[:, y] = near[x, x] = False
            near[:, x] = near[x]
            ids[x] = first + len(out) - 1
            queue.append(x)
    return out


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
    holding leaves i and j, which must still be apart. In a leaf order where
    the second cluster of each merge follows the first, every cluster is a
    run, so a merge's block is two rectangles; the matrix is filled in that
    order, root first, and permuted back.
    """
    root, size, blocks = list(range(n)), [1] * n, []
    for a, b, level in joins:
        while root[a] != a:  # each cluster's root leaf, halving the paths
            root[a] = a = root[root[a]]
        while root[b] != b:
            root[b] = b = root[root[b]]
        blocks.append((a, b, size[a], size[b], level))
        size[a] += size[b]
        root[b] = a
    at, end = [0] * n, 0  # where each cluster's run starts
    for r in range(n):
        if root[r] == r:
            at[r], end = end, end + size[r]
    out = np.zeros((n, n), dtype)
    for a, b, na, nb, level in reversed(blocks):
        lo, mid, hi = at[a], at[a] + na, at[a] + na + nb
        at[b] = mid
        out[lo:mid, mid:hi] = level
        out[mid:hi, lo:mid] = level
    return out.take(at, axis=0).take(at, axis=1)


def join_nodes(h: Dendrogram) -> tuple[np.ndarray, np.ndarray]:
    """(heights, joins): each node's height (0 at the leaves) and the int32
    node id at which each leaf pair first joins (leaf 0 on the diagonal), so
    heights[joins] is the cophenetic matrix."""
    n = h.n_leaves
    leaf = list(range(n))  # one leaf under each node id
    for m in h.merges:
        leaf.append(leaf[m.left])
    joins = ((leaf[m.left], leaf[m.right], n + s) for s, m in enumerate(h.merges))
    heights = np.array([0.0] * n + [m.height for m in h.merges])
    return heights, _join_levels(n, joins, np.int32)


def cophenetic(h: Dendrogram) -> UltrametricMatrix:
    """Matrix of merge heights at which each leaf pair first joins."""
    heights, joins = join_nodes(h)
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
    lo, hi, weights = _mst(d.values)
    edges = list(zip(lo.tolist(), hi.tolist(), weights.tolist()))
    return EdgeList(edges, float(sum(w for _, _, w in edges)))


def _mst(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """mst_kruskal's edges as (lo, hi, weight) arrays, in (weight, i, j) order."""
    n = values.shape[0]
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
    return lo[order], hi[order], weights[order]


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
    if any(ch in label for ch in "(),:;'\" \t\r\n[]"):
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
