"""Independent brute-force reference implementations used by the tests.

Everything here is written with plain loops and scalar math so that the
vectorized library code is checked against a second, structurally
different computation.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np


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
    differential tests compare write_table with it byte for byte.
    """
    from umtk.matrixio import format_value

    with open(path, "w", encoding="utf-8", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        writer = csv.writer(fh, lineterminator="\n")
        for row in rows:
            writer.writerow([format_value(v) for v in row])
