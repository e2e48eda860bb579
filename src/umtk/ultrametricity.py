"""Triplet geometry and degree-of-ultrametricity coefficients.

In an ultrametric space every triangle is isosceles with its unequal
side smallest (or equilateral): the smallest angle is at most 60 degrees
and the two base angles are equal. classify_triplet applies exactly that
test to a single triangle; alpha_epsilon aggregates it over all (or a
seeded sample of) triplets into a coefficient in [0, 1]. rammal_index
and lerman_h quantify ultrametricity from the values alone, without
coordinates, and treves_hartmann_points emits per-triplet shape records
for external plotting.

Every triplet scan is a per-chunk kernel run by triplets.scan, which
owns the chunking, the seeded sampling and the optional thread pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hierarchy import minmax_path_closure
from .matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    _ArrayFieldsEq,
    euclidean_distances,
)
from .triplets import first_smallest, scan, sort3

#: Default tolerance on the difference between base angles, in radians
#: (two degrees).
DEFAULT_EPSILON = 0.034906585

#: Sides shorter than this make a triangle degenerate.
SIDE_TOLERANCE = 1e-12

#: Cosines within this of +-1 make a triangle degenerate (flat).
COS_TOLERANCE = 1e-12

#: Absolute slack allowed when comparing the smallest angle to pi/3,
#: covering one-ulp effects in exactly equilateral configurations.
ANGLE_SLACK = 1e-12


@dataclass
class TripletGeometry:
    """Side lengths and interior angles of the triangle on points i, j, k.

    sides[0] is opposite vertex i (the j-k distance), sides[1] opposite j,
    sides[2] opposite k; angles follow the same vertex order. angles is
    None when the triangle is degenerate (a vanishing side or a flat
    angle).
    """

    i: int
    j: int
    k: int
    sides: tuple[float, float, float]
    angles: tuple[float, float, float] | None
    degenerate: bool


@dataclass
class TripletVerdict:
    """Outcome of the isosceles-small-base test on one triangle."""

    geometry: TripletGeometry
    apex: int
    base: tuple[int, int]
    base_angle_diff: float
    ultrametric: bool


@dataclass
class UltrametricityReport:
    """Aggregate alpha coefficient over a triplet scan."""

    alpha: float
    counted: int
    excluded_degenerate: int
    epsilon: float
    sampled: bool
    seed: int | None


@dataclass(eq=False)
class TrevesHartmannResult(_ArrayFieldsEq):
    """Per-triplet shape records (min/max, med/max, max - med)."""

    points: np.ndarray
    skipped_zero_max: int


def _angles_from_sides(
    x: np.ndarray, y: np.ndarray, z: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Law-of-cosines angles at i, j, k plus a degeneracy mask.

    x, y, z are the sides opposite i, j, k. Degenerate entries get angle
    values that must not be used (the mask marks them).
    """
    small = (x < SIDE_TOLERANCE) | (y < SIDE_TOLERANCE) | (z < SIDE_TOLERANCE)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_i = (y * y + z * z - x * x) / (2.0 * y * z)
        cos_j = (x * x + z * z - y * y) / (2.0 * x * z)
        cos_k = (x * x + y * y - z * z) / (2.0 * x * y)
    flat = np.zeros_like(small)
    for c in (cos_i, cos_j, cos_k):
        flat |= ~np.isfinite(c) | (np.abs(c) > 1.0 - COS_TOLERANCE)
    degenerate = small | flat
    ang_i = np.arccos(np.clip(cos_i, -1.0, 1.0))
    ang_j = np.arccos(np.clip(cos_j, -1.0, 1.0))
    ang_k = np.arccos(np.clip(cos_k, -1.0, 1.0))
    return ang_i, ang_j, ang_k, degenerate


def triplet_geometry(
    coords: CoordinateMatrix, i: int, j: int, k: int
) -> TripletGeometry:
    """Triangle side lengths and angles for three distinct point indices."""
    n = coords.n
    if len({i, j, k}) != 3:
        raise ValueError("triplet indices must be pairwise distinct")
    for idx in (i, j, k):
        if not 0 <= idx < n:
            raise ValueError(f"point index {idx} out of range")
    pts = coords.coords
    x = float(np.linalg.norm(pts[j] - pts[k]))
    y = float(np.linalg.norm(pts[i] - pts[k]))
    z = float(np.linalg.norm(pts[i] - pts[j]))
    ai, aj, ak, degen = _angles_from_sides(
        np.array([x]), np.array([y]), np.array([z])
    )
    if bool(degen[0]):
        return TripletGeometry(i, j, k, (x, y, z), None, True)
    return TripletGeometry(
        i, j, k, (x, y, z), (float(ai[0]), float(aj[0]), float(ak[0])), False
    )


def _classify_angles(angles: tuple, verts: tuple, epsilon: float) -> tuple[np.ndarray, ...]:
    """Verdicts from angles (arrays or scalars) at ascending vertex ids: (apex, diff, ultra).

    The apex is the smallest angle, the first (lowest id) on ties. The
    apex-angle bound of classify_triplet is not tested: the smallest
    angle of a non-degenerate triangle is at most 60 degrees.
    """
    lo, mid, hi = sort3(*angles)
    diff = hi - mid
    return first_smallest(lo, angles, verts), diff, diff < epsilon


def classify_triplet(g: TripletGeometry, epsilon: float = DEFAULT_EPSILON) -> TripletVerdict:
    """Decide whether one triangle is isosceles with small base.

    The apex is the vertex with the smallest angle (lowest point id on
    ties); the other two vertices form the base. The triangle counts as
    ultrametric when the apex angle is at most 60 degrees and the two
    base angles differ by strictly less than epsilon.
    """
    if g.degenerate or g.angles is None:
        raise ValueError("cannot classify a degenerate triangle")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    verts, angles = zip(*sorted(zip((g.i, g.j, g.k), g.angles), key=lambda va: va[0]))
    apex, diff, ultra = _classify_angles(angles, verts, epsilon)
    apex_id = int(apex)
    base = sorted({g.i, g.j, g.k} - {apex_id})
    # hand-built angles need not form a triangle, so the apex bound is tested here
    return TripletVerdict(
        geometry=g,
        apex=apex_id,
        base=(base[0], base[1]),
        base_angle_diff=float(diff),
        ultrametric=bool(ultra) and min(g.angles) <= math.pi / 3.0 + ANGLE_SLACK,
    )


def _classify_chunk(
    values: np.ndarray, ii: np.ndarray, jj: np.ndarray, kk: np.ndarray, epsilon: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized verdicts: (apex ids, base angle diffs, ultra, degenerate)."""
    *angles, degen = _angles_from_sides(values[jj, kk], values[ii, kk], values[ii, jj])
    apex, diff, ultra = _classify_angles(angles, (ii, jj, kk), epsilon)
    return apex, diff, ultra & ~degen, degen


def alpha_epsilon(
    coords: CoordinateMatrix,
    epsilon: float = DEFAULT_EPSILON,
    sample: int | None = None,
    seed: int | None = None,
    workers: int = 1,
) -> UltrametricityReport:
    """Fraction of non-degenerate triplets passing the isosceles test.

    Scans all n-choose-3 triplets, or `sample` seeded draws with
    replacement when sample is given. Degenerate triplets are excluded
    from the denominator but reported. workers > 1 splits the chunked
    scan across threads without changing any count.
    """
    if coords.n < 3:
        raise ValueError("need at least three points")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    values = euclidean_distances(coords).values

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple[int, int, int]:
        _, _, ultra, degen = _classify_chunk(values, ii, jj, kk, epsilon)
        return int(ultra.sum()), int(degen.sum()), ii.shape[0]

    results = scan(coords.n, kernel, sample, seed, workers)
    ultra_total, degen_total, examined = (sum(col) for col in zip(*results))
    counted = examined - degen_total
    if counted == 0:
        raise ValueError("every examined triplet was degenerate")
    return UltrametricityReport(
        alpha=ultra_total / counted,
        counted=counted,
        excluded_degenerate=degen_total,
        epsilon=epsilon,
        sampled=sample is not None,
        seed=seed if sample is not None else None,
    )


def scan_triplet_verdicts(
    coords: CoordinateMatrix,
    epsilon: float = DEFAULT_EPSILON,
    sample: int | None = None,
    seed: int | None = None,
) -> tuple[np.ndarray, ...]:
    """Columns (i, j, k, apex, base_angle_diff, ultrametric) of a verdict scan.

    One entry per triplet, in scan order. apex and base_angle_diff are
    masked arrays, masked where the triangle is degenerate; ultrametric
    is False there. Intended for report export; use alpha_epsilon for
    the aggregate.
    """
    if coords.n < 3:
        raise ValueError("need at least three points")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    values = euclidean_distances(coords).values

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple[np.ndarray, ...]:
        apex, diff, ultra, degen = _classify_chunk(values, ii, jj, kk, epsilon)
        return ii, jj, kk, apex, diff, ultra, degen

    ii, jj, kk, apex, diff, ultra, degen = (
        np.concatenate(col) for col in zip(*scan(coords.n, kernel, sample, seed))
    )
    return ii, jj, kk, np.ma.array(apex, mask=degen), np.ma.array(diff, mask=degen), ultra


def rammal_index(d: DissimilarityMatrix) -> float:
    """Normalized gap between d and its subdominant ultrametric.

    Sum over pairs of (d - closure) divided by the sum of d. Zero exactly
    when d already satisfies the strong triangle inequality; invariant
    under scaling of d.
    """
    total = float(d.condensed().sum())
    if total <= 0.0:
        raise ValueError("all dissimilarities are zero")
    closure = minmax_path_closure(d)
    gap = float((d.condensed() - closure.condensed()).sum())
    return gap / total


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks, ties sharing their mean rank (scipy's rankdata formula)."""
    _, dense, counts = np.unique(values, return_inverse=True, return_counts=True)
    ends = np.r_[0, np.cumsum(counts)]
    return 0.5 * (ends[dense] + ends[dense + 1] + 1)


def lerman_h(
    d: DissimilarityMatrix,
    sample: int | None = None,
    seed: int | None = None,
) -> float:
    """Mean normalized rank gap between each triplet's two largest values.

    All n(n-1)/2 pair values are ranked once (average ranks on ties);
    each triplet contributes (rank of max - rank of median) / (P - 1).
    Zero exactly when every triplet's two largest values tie.
    """
    n = d.n
    if n < 3:
        raise ValueError("need at least three items")
    pair_count = n * (n - 1) // 2
    ranks_condensed = _average_ranks(d.condensed())
    rank_matrix = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    rank_matrix[iu] = ranks_condensed
    rank_matrix = rank_matrix + rank_matrix.T

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple[float, int]:
        _, mid, hi = sort3(rank_matrix[ii, jj], rank_matrix[ii, kk], rank_matrix[jj, kk])
        return float((hi - mid).sum()), ii.shape[0]

    total, count = (sum(col) for col in zip(*scan(n, kernel, sample, seed)))
    return total / (count * (pair_count - 1))


def treves_hartmann_points(
    d: DissimilarityMatrix,
    sample: int | None = None,
    seed: int | None = None,
) -> TrevesHartmannResult:
    """Shape record (min/max, med/max, max - med) for each triplet.

    Triplets whose largest value is zero have no defined shape; they are
    skipped and counted. Records appear in scan order.
    """
    if d.n < 3:
        raise ValueError("need at least three items")

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple[np.ndarray, int]:
        lo, mid, hi = sort3(d.values[ii, jj], d.values[ii, kk], d.values[jj, kk])
        ok = hi > 0.0
        lo, mid, hi = lo[ok], mid[ok], hi[ok]
        return np.column_stack([lo / hi, mid / hi, hi - mid]), int((~ok).sum())

    blocks, skipped = zip(*scan(d.n, kernel, sample, seed))
    return TrevesHartmannResult(np.concatenate(blocks), sum(skipped))
