"""Independent brute-force reference implementations used by the tests.

Most of these are written with plain loops and scalar math so that the
vectorized library code is checked against a second, structurally
different computation. The others are the routes a faster library
routine replaced (Floyd-Warshall closure, the two-branch consensus
scan, the float signatures and lowering scan of a consensus pair, the
consensus table's triplet scan, the np.ix_ fill of join levels, the
power repair's full bisection, the additive repair's full scans, the csv
matrix reader, the np.sort and argsort orderings of a triplet's three
values, the buffered per-row enumeration of triplet chunks, the np.unique
average ranks, the one-expression residuals of correspondence analysis),
kept so the replacement can be checked bit for bit.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from typing import Iterator

import numpy as np

from umtk.consensus import _tied
from umtk.hierarchy import minmax_path_closure
from umtk.matrices import DissimilarityMatrix, UltrametricMatrix
from umtk.spectral import _signs
from umtk.transforms import REPAIR_TOLERANCE_FACTOR
from umtk import triplets
from umtk.triplets import first_smallest, iter_scan, sort3


def sorted_pair_values(
    values: np.ndarray, ii: np.ndarray, jj: np.ndarray, kk: np.ndarray
) -> np.ndarray:
    """(3, m) array of each triple's pair values (ij, ik, jk) sorted ascending."""
    stacked = np.stack([values[ii, jj], values[ii, kk], values[jj, kk]])
    stacked.sort(axis=0)
    return stacked


def iter_triplet_chunks_buffered(
    n: int, chunk_size: int | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield (ii, jj, kk) index arrays covering all triples i < j < k.

    Concatenating the chunks gives the full enumeration in ascending
    lexicographic order. Each chunk holds at most chunk_size triples
    (None: DEFAULT_CHUNK as it is at call time).
    """
    chunk_size = triplets.DEFAULT_CHUNK if chunk_size is None else chunk_size
    if chunk_size < 1:
        raise ValueError("chunk_size must be positive")
    buf_i: list[np.ndarray] = []
    buf_j: list[np.ndarray] = []
    buf_k: list[np.ndarray] = []
    buffered = 0
    for i in range(n - 2):
        # all pairs i < j < k for this i
        jj, kk = np.triu_indices(n - i - 1, k=1)
        jj = jj + i + 1
        kk = kk + i + 1
        buf_i.append(np.full(jj.shape[0], i, dtype=np.int64))
        buf_j.append(jj.astype(np.int64))
        buf_k.append(kk.astype(np.int64))
        buffered += jj.shape[0]
        if buffered >= chunk_size:
            ii = np.concatenate(buf_i)
            jj_all = np.concatenate(buf_j)
            kk_all = np.concatenate(buf_k)
            for lo in range(0, buffered - chunk_size + 1, chunk_size):
                yield (
                    ii[lo : lo + chunk_size],
                    jj_all[lo : lo + chunk_size],
                    kk_all[lo : lo + chunk_size],
                )
            rem = buffered % chunk_size
            if rem:
                buf_i = [ii[-rem:]]
                buf_j = [jj_all[-rem:]]
                buf_k = [kk_all[-rem:]]
            else:
                buf_i, buf_j, buf_k = [], [], []
            buffered = rem
    if buffered:
        yield np.concatenate(buf_i), np.concatenate(buf_j), np.concatenate(buf_k)


def signature_arrays(
    values: np.ndarray, ii: np.ndarray, jj: np.ndarray, kk: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized float signatures: (isosceles mask, equilateral mask, apex ids).

    The apex id is the vertex opposite the first smallest pair value, in
    (ij, ik, jk) order; it is meaningful only where the isosceles mask
    holds.
    """
    pairs = values[ii, jj], values[ii, kk], values[jj, kk]
    lo, mid, hi = sort3(*pairs)
    equilateral = _tied(lo, hi, tol)
    isosceles = ~equilateral & _tied(mid, hi, tol) & ~_tied(lo, mid, tol)
    return isosceles, equilateral, first_smallest(lo, pairs, (kk, jj, ii))


def consensus_scan_float(
    u1: UltrametricMatrix, u2: UltrametricMatrix, tie_tolerance: float = 1e-9
) -> tuple[np.ndarray, int, UltrametricMatrix]:
    """(matched rows, skipped ties, ultrametric) of a pair by one float triplet scan.

    Every triplet gets both float signatures. The matched ones give the
    (i, j, k, base_i, base_j, apex) rows; the ones not isosceles on both
    sides are the skips. Every pair starts at the elementwise minimum,
    each non-matched triplet lowers its three pairs to the least of the
    six values it involves, and the result is the closure of that.
    """
    n = u1.n
    # flat views: 1-D indices make np.minimum.at about 2.5 times faster
    low = np.minimum(u1.values, u2.values).reshape(-1)
    cand = low.copy()

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple:
        iso1, _, apex1 = signature_arrays(u1.values, ii, jj, kk, tie_tolerance)
        iso2, _, apex2 = signature_arrays(u2.values, ii, jj, kk, tie_tolerance)
        both_iso = iso1 & iso2
        matched = both_iso & (apex1 == apex2)
        mi, mj, mk, ma = ii[matched], jj[matched], kk[matched], apex1[matched]
        base_lo = np.where(ma == mk, mi, np.where(ma == mj, mi, mj))
        base_hi = np.where(ma == mk, mj, mk)
        rows = np.column_stack([mi, mj, mk, base_lo, base_hi, ma])
        ti, tj, tk = ii[~matched], jj[~matched], kk[~matched]
        pairs = (ti * n + tj, ti * n + tk, tj * n + tk)
        smallest = np.minimum(np.minimum(low[pairs[0]], low[pairs[1]]), low[pairs[2]])
        return rows, int((~both_iso).sum()), pairs, smallest

    blocks, skipped = [np.zeros((0, 6), dtype=np.int64)], 0
    for rows, skips, pairs, smallest in iter_scan(n, kernel):
        blocks.append(rows)
        skipped += skips
        for pair in pairs:
            np.minimum.at(cand, pair, smallest)
    cand = cand.reshape(n, n)
    merged = DissimilarityMatrix(np.minimum(cand, cand.T), list(u1.labels))
    return np.concatenate(blocks), skipped, minmax_path_closure(merged)


def signature_arrays_argsort(
    values: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
    kk: np.ndarray,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """signature_arrays by a stable argsort of the stacked values.

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


def classify_angles_argsort(
    angles: np.ndarray, verts: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ultrametricity._classify_angles by a stable argsort of (3, m) angles.

    verts holds the (3, m) ascending vertex ids; the apex is the smallest
    angle, the first (lowest id) on ties.
    """
    order = np.argsort(angles, axis=0, kind="stable")
    srt = np.take_along_axis(angles, order, axis=0)
    diff = srt[2] - srt[1]
    apex = np.take_along_axis(verts, order[:1], axis=0)[0]
    return apex, diff, diff < epsilon


def brute_pairwise(points: np.ndarray) -> np.ndarray:
    n = len(points)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            s = 0.0
            for a, b in zip(points[i], points[j]):
                s += (a - b) ** 2
            out[i, j] = out[j, i] = math.sqrt(s)
    return out


def brute_gram(d: np.ndarray) -> np.ndarray:
    n = d.shape[0]
    sq = d ** 2
    row = sq.mean(axis=1)
    grand = sq.mean()
    out = np.zeros((n, n))
    for i in range(n):
        for k in range(n):
            out[i, k] = -0.5 * (sq[i, k] - row[i] - row[k] + grand)
    return out


def chi2_profile_distances(f: np.ndarray) -> np.ndarray:
    p = f / f.sum()
    r = p.sum(axis=1)
    c = p.sum(axis=0)
    prof = p / r[:, None]
    n = f.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            out[i, j] = math.sqrt((((prof[i] - prof[j]) ** 2) / c).sum())
    return out


def brute_triangle_violations(d: np.ndarray, tol: float) -> list[tuple[int, int, int, float]]:
    n = d.shape[0]
    out = []
    for i, j, k in itertools.combinations(range(n), 3):
        vals = sorted([d[i, j], d[i, k], d[j, k]])
        slack = vals[2] - vals[1] - vals[0]
        if slack > tol:
            out.append((i, j, k, slack))
    return out


def brute_strong_violations(d: np.ndarray, tol: float) -> list[tuple[int, int, int, float]]:
    n = d.shape[0]
    out = []
    for i, j, k in itertools.combinations(range(n), 3):
        vals = sorted([d[i, j], d[i, k], d[j, k]])
        slack = vals[2] - vals[1]
        if slack > tol:
            out.append((i, j, k, slack))
    return out


def brute_angles(pa, pb, pc) -> tuple[float, float, float] | None:
    """Angles at the three vertices; None when degenerate."""
    x = math.dist(pb, pc)
    y = math.dist(pa, pc)
    z = math.dist(pa, pb)
    if min(x, y, z) < 1e-12:
        return None
    cos_a = (y * y + z * z - x * x) / (2 * y * z)
    cos_b = (x * x + z * z - y * y) / (2 * x * z)
    cos_c = (x * x + y * y - z * z) / (2 * x * y)
    if max(abs(cos_a), abs(cos_b), abs(cos_c)) > 1 - 1e-12:
        return None
    clamp = lambda v: max(-1.0, min(1.0, v))
    return (
        math.acos(clamp(cos_a)),
        math.acos(clamp(cos_b)),
        math.acos(clamp(cos_c)),
    )


def brute_classify(points: np.ndarray, i: int, j: int, k: int, epsilon: float):
    """(apex, diff, ultrametric) or None for a degenerate triangle."""
    angles = brute_angles(points[i], points[j], points[k])
    if angles is None:
        return None
    verts = (i, j, k)
    pairs = sorted(zip(angles, verts))
    apex = pairs[0][1]
    diff = abs(pairs[1][0] - pairs[2][0])
    ultra = pairs[0][0] <= math.pi / 3 + 1e-12 and diff < epsilon
    return apex, diff, ultra


def brute_alpha(points: np.ndarray, epsilon: float) -> tuple[float, int, int]:
    """(alpha, counted, degenerate) by scalar loops."""
    n = len(points)
    hits = counted = degen = 0
    for i, j, k in itertools.combinations(range(n), 3):
        res = brute_classify(points, i, j, k, epsilon)
        if res is None:
            degen += 1
        else:
            counted += 1
            hits += res[2]
    return hits / counted, counted, degen


def brute_signature(vals: tuple[float, float, float], tol: float) -> str:
    """Shape of a value triple: 'iso', 'equi' or 'other'."""
    s = sorted(vals)
    tied = lambda a, b: abs(a - b) <= tol * max(abs(a), abs(b))
    if tied(s[0], s[2]):
        return "equi"
    if tied(s[1], s[2]) and not tied(s[0], s[1]):
        return "iso"
    return "other"


def brute_iso_apex(u: np.ndarray, i: int, j: int, k: int, tol: float):
    """(base pair, apex) when the triple is isosceles-small-base else None."""
    vals = (u[i, j], u[i, k], u[j, k])
    if brute_signature(vals, tol) != "iso":
        return None
    pairs = [(i, j), (i, k), (j, k)]
    lowest = min(range(3), key=lambda p: vals[p])
    base = pairs[lowest]
    apex = ({i, j, k} - set(base)).pop()
    return base, apex


def brute_consensus(u1: np.ndarray, u2: np.ndarray, tol: float):
    """(matched set, skipped tie count) over all triplets."""
    n = u1.shape[0]
    matched = set()
    skipped = 0
    for i, j, k in itertools.combinations(range(n), 3):
        r1 = brute_iso_apex(u1, i, j, k, tol)
        r2 = brute_iso_apex(u2, i, j, k, tol)
        if r1 is None or r2 is None:
            skipped += 1
            continue
        if r1[1] == r2[1]:
            matched.add((i, j, k, r1[0][0], r1[0][1], r1[1]))
    return matched, skipped


def consensus_ultrametric_two_branch(
    u1: UltrametricMatrix, u2: UltrametricMatrix, tie_tolerance: float = 1e-9
) -> UltrametricMatrix:
    """Consensus ultrametric by the separate two-branch triplet scan.

    Every triplet proposes candidate levels for its three pairs: the
    elementwise minimum of the two inputs where the triplet is
    morphologically consistent, and the minimum over all six involved
    values where it is not. Each pair keeps its smallest candidate, and
    the result is the min-max path closure of the candidates. With fewer
    than three items the elementwise minimum is returned.
    """
    n = u1.n
    if n < 3:
        return UltrametricMatrix(np.minimum(u1.values, u2.values), list(u1.labels))
    cand = np.full((n, n), np.inf)
    np.fill_diagonal(cand, 0.0)

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> None:
        iso1, _, apex1 = signature_arrays_argsort(u1.values, ii, jj, kk, tie_tolerance)
        iso2, _, apex2 = signature_arrays_argsort(u2.values, ii, jj, kk, tie_tolerance)
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

    list(iter_scan(n, kernel))
    cand = np.minimum(cand, cand.T)
    return minmax_path_closure(DissimilarityMatrix(cand, list(u1.labels)))


def consensus_table_scan(ultrams: list[UltrametricMatrix], tie_tolerance: float) -> np.ndarray:
    """consensus_table's counts by one triplet scan over every ultrametric.

    Entry (p, q) counts the triplets isosceles under both p and q with
    the same apex.
    """
    m = len(ultrams)

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> np.ndarray:
        sigs = [signature_arrays(u.values, ii, jj, kk, tie_tolerance) for u in ultrams]
        chunk = np.zeros((m, m), dtype=np.int64)
        for p, (iso_p, _, apex_p) in enumerate(sigs):
            for q in range(p, m):
                iso_q, _, apex_q = sigs[q]
                chunk[p, q] = chunk[q, p] = (iso_p & iso_q & (apex_p == apex_q)).sum()
        return chunk

    return sum(iter_scan(ultrams[0].n, kernel), np.zeros((m, m), dtype=np.int64))


def brute_component(points: np.ndarray, matched, epsilon: float):
    """Retained (i, j, k) set given stage-1 matches, by scalar geometry."""
    retained = set()
    for (i, j, k, b1, b2, apex) in matched:
        angles = brute_angles(points[i], points[j], points[k])
        if angles is None:
            continue
        by_vertex = dict(zip((i, j, k), angles))
        a_apex = by_vertex[apex]
        a_base = [by_vertex[b1], by_vertex[b2]]
        if a_apex > min(a_base) + 1e-12:
            continue
        diff = abs(a_base[0] - a_base[1])
        if a_apex <= math.pi / 3 + 1e-12 and diff <= epsilon:
            retained.add((i, j, k))
    return retained


def mst_total_bruteforce(d: np.ndarray) -> float:
    """Minimum spanning tree weight by enumerating all edge subsets."""
    n = d.shape[0]
    edges = list(itertools.combinations(range(n), 2))
    best = math.inf
    for subset in itertools.combinations(edges, n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        ok = True
        for i, j in subset:
            ri, rj = find(i), find(j)
            if ri == rj:
                ok = False
                break
            parent[ri] = rj
        if ok:
            best = min(best, sum(d[i, j] for i, j in subset))
    return best


def mst_kruskal_loop(values: np.ndarray) -> tuple[list[tuple[int, int, float]], float]:
    """Kruskal with union-find over edges in (weight, i, j) order, i < j.

    Returns the tree edges in the order they were accepted and their
    total weight, summed in that order.
    """
    n = values.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    weights = values[iu, ju]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for idx in np.lexsort((ju, iu, weights)):
        i, j = int(iu[idx]), int(ju[idx])
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[ri] = rj
            edges.append((i, j, float(weights[idx])))
    return edges, float(sum(w for _, _, w in edges))


def closure_floyd_warshall(d: np.ndarray) -> np.ndarray:
    """Min-max path closure by Floyd-Warshall in the (min, max) semiring."""
    u = d.copy()
    n = d.shape[0]
    for k in range(n):
        col = u[:, k]
        np.minimum(u, np.maximum(col[:, None], col[None, :]), out=u)
    return u


def closure_bruteforce(d: np.ndarray) -> np.ndarray:
    """Min over all simple paths of the max step, by path enumeration."""
    n = d.shape[0]
    out = d.copy()
    nodes = list(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            best = d[i, j]
            others = [v for v in nodes if v not in (i, j)]
            for size in range(1, len(others) + 1):
                for mid in itertools.permutations(others, size):
                    path = [i, *mid, j]
                    step = max(d[a, b] for a, b in zip(path, path[1:]))
                    best = min(best, step)
            out[i, j] = out[j, i] = best
    return out


def linkage_loop(values: np.ndarray, criterion: str) -> list[tuple[int, int, float, int]]:
    """Stored-matrix agglomeration that rescans the whole work matrix per merge.

    Merges (left, right, height, size) under umtk's tie rule: at the
    minimal value, the pair with the least (lower node id, higher node id).
    Rows of the inversion-free criteria are floored at the merge level.
    """
    n = values.shape[0]
    squared = criterion in ("ward", "centroid", "median")
    work = values ** 2 if squared else values.copy()
    np.fill_diagonal(work, np.inf)
    active = np.ones(n, dtype=bool)
    node_id = np.arange(n, dtype=np.int64)
    size = np.ones(n, dtype=np.int64)
    merges = []
    for step in range(n - 1):
        level = float(work.min())
        ta, tb = np.nonzero(work == level)
        upper = ta < tb
        ta, tb = ta[upper], tb[upper]
        lo_ids = np.minimum(node_id[ta], node_id[tb])
        hi_ids = np.maximum(node_id[ta], node_id[tb])
        pick = np.lexsort((hi_ids, lo_ids))[0]
        a, b = int(ta[pick]), int(tb[pick])
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
        if criterion not in ("centroid", "median"):
            new_row = np.maximum(level, new_row)  # the floor linkage applies
        height = float(np.sqrt(max(level, 0.0))) if squared else level
        merges.append((best_key[0], best_key[1], height, na + nb))
        new_row = np.where(active, new_row, np.inf)
        new_row[a] = np.inf
        work[a, :] = new_row
        work[:, a] = new_row
        work[b, :] = np.inf
        work[:, b] = np.inf
        active[b] = False
        node_id[a] = n + step
        size[a] = na + nb
    return merges


def join_levels_ix(n: int, joins, dtype=float) -> np.ndarray:
    """The join table hierarchy.join_nodes fills, by two np.ix_ block
    assignments per join in leaf index order: each (i, j, level) unites the
    clusters of i and j."""
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


def parse_newick(text: str):
    """Parse a binary newick with branch lengths.

    Returns a list of (frozenset of leaf labels, height) for every
    internal node, heights reconstructed bottom-up from the lengths.
    """
    s = text.strip()
    assert s.endswith(";")
    s = s[:-1]
    pos = 0

    def parse_node():
        nonlocal pos
        records = []
        if s[pos] == "(":
            pos += 1
            left_set, left_h, left_rec = parse_edge()
            assert s[pos] == ","
            pos += 1
            right_set, right_h, right_rec = parse_edge()
            assert s[pos] == ")"
            pos += 1
            assert abs(left_h - right_h) < 1e-9, "inconsistent child heights"
            height = left_h
            leaves = left_set | right_set
            records = left_rec + right_rec + [(frozenset(leaves), height)]
            return leaves, height, records
        start = pos
        while pos < len(s) and s[pos] not in ",():;":
            pos += 1
        return {s[start:pos]}, 0.0, []

    def parse_edge():
        nonlocal pos
        leaves, height, records = parse_node()
        assert s[pos] == ":"
        pos += 1
        start = pos
        while pos < len(s) and s[pos] not in ",()":
            pos += 1
        length = float(s[start:pos])
        return leaves, height + length, records

    leaves, height, records = parse_node()
    assert pos == len(s)
    return records


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    xm = x - x.mean()
    ym = y - y.mean()
    return float((xm * ym).sum() / math.sqrt((xm ** 2).sum() * (ym ** 2).sum()))


def write_rows(path, rows, header_lines=()) -> None:
    """The row-at-a-time CSV writer the library used before write_table.

    Every cell goes through matrixio.format_value and csv.writer; the
    differential tests compare write_table with it byte for byte. The
    writer ends rows with CR LF, so that it quotes a cell holding CR as
    it quotes one holding LF; that terminator is then written as LF.
    Header lines have their backslashes, CRs and LFs escaped.
    """
    from umtk.matrixio import format_value

    escapes = str.maketrans({"\\": "\\\\", "\r": "\\r", "\n": "\\n"})
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line.translate(escapes)}\n")
        for row in rows:
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\r\n").writerow([format_value(v) for v in row])
            fh.write(buf.getvalue()[:-2] + "\n")


def read_labeled_matrix_csv(path) -> tuple[np.ndarray, list[str], list[str]]:
    """The matrix reader the library used before it parsed with np.loadtxt.

    Every row goes through csv.reader and every value cell through
    float(); the differential tests compare read_labeled_matrix with it.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = itertools.dropwhile(lambda ln: ln.startswith("#"), fh)
        rows = [row for row in csv.reader(lines) if row]
    if not rows:
        raise ValueError(f"{path}: empty matrix file")
    col_labels = rows[0][1:]
    if any(len(r) != len(rows[0]) for r in rows[1:]):
        raise ValueError(f"{path}: ragged matrix rows")
    row_labels = [r[0] for r in rows[1:]]
    try:
        values = np.array(
            [[float(v) for v in r[1:]] for r in rows[1:]], dtype=np.float64
        )
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric matrix entry ({exc})") from None
    return values, row_labels, col_labels


def worst_metric_slack(values: np.ndarray, n: int) -> float:
    """Largest triangle slack max - mid - min over all C(n,3) triples, -inf if none."""

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> float:
        s = sorted_pair_values(values, ii, jj, kk)
        return float((s[2] - s[1] - s[0]).max())

    return max([-np.inf, *iter_scan(n, kernel)])


def cailliez_full_scan(d: DissimilarityMatrix) -> tuple[DissimilarityMatrix, float]:
    """cailliez_additive as it was before its shifted scans kept to the near triples.

    The first scan and every nudge round's scan of d + c cover all C(n,3)
    triples.
    """
    c = max(0.0, worst_metric_slack(d.values, d.n))
    if c == 0.0:
        return DissimilarityMatrix(d.values.copy(), list(d.labels)), 0.0
    for _ in range(100):
        shifted = d.values + c
        np.fill_diagonal(shifted, 0.0)
        residual = worst_metric_slack(shifted, d.n)
        if residual <= 0.0:
            break
        c += residual
    else:
        raise RuntimeError("additive repair failed to converge")
    return DissimilarityMatrix(shifted, list(d.labels)), c


def power_shrink_full_bisection(
    d: DissimilarityMatrix, r_tolerance: float = 1e-6
) -> tuple[DissimilarityMatrix, float]:
    """power_shrink as it was before it dropped settled triples.

    Every test of the bisection scans all C(n,3) triples of d ** r.
    """

    def is_metric(values: np.ndarray, n: int) -> bool:
        worst = worst_metric_slack(values, n)
        scale = float(values.max())
        return worst <= REPAIR_TOLERANCE_FACTOR * scale

    if r_tolerance <= 0:
        raise ValueError("r_tolerance must be positive")
    off_diag = ~np.eye(d.n, dtype=bool)
    if np.any(d.values[off_diag] == 0.0):
        raise ValueError(
            "power repair requires positive off-diagonal dissimilarities"
        )
    if d.n < 3 or is_metric(d.values, d.n):
        return DissimilarityMatrix(d.values.copy(), list(d.labels)), 1.0

    def candidate(r: float) -> np.ndarray:
        out = d.values ** r
        np.fill_diagonal(out, 0.0)
        return out

    lo = 0.5
    while not is_metric(candidate(lo), d.n):
        lo *= 0.5
        if lo < 1e-18:
            raise RuntimeError("no metric power found")
    hi = 1.0
    while hi - lo > r_tolerance:
        mid = 0.5 * (lo + hi)
        if is_metric(candidate(mid), d.n):
            lo = mid
        else:
            hi = mid
    return DissimilarityMatrix(candidate(lo), list(d.labels)), lo


def average_ranks_unique(values: np.ndarray) -> np.ndarray:
    """Lerman's average ranks as the library took them from np.unique."""
    _, dense, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.r_[0, np.cumsum(counts)]
    return 0.5 * (ends[dense] + ends[dense + 1] + 1)


def ca_one_expression(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(row coordinates, column coordinates, singular values) of
    correspondence_analysis as it was, the standardized residuals built in one
    expression, before they were built in place."""
    p = values / values.sum()
    r, c = p.sum(axis=1), p.sum(axis=0)
    inv_sqrt_r, inv_sqrt_c = 1.0 / np.sqrt(r), 1.0 / np.sqrt(c)
    s = inv_sqrt_r[:, None] * (p - np.outer(r, c)) * inv_sqrt_c[None, :]
    u, sigma, vt = np.linalg.svd(s, full_matrices=False)
    keep = min(int(np.count_nonzero(sigma > 1e-10 * sigma[0])), min(values.shape) - 1)
    signs = _signs(u[:, :keep])
    sigma = sigma[:keep]
    return (inv_sqrt_r[:, None] * (u[:, :keep] * signs) * sigma[None, :],
            inv_sqrt_c[:, None] * (vt[:keep, :].T * signs) * sigma[None, :], sigma)
