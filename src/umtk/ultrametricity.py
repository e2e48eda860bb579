"""Triplet geometry and degree-of-ultrametricity coefficients.

In an ultrametric space every triangle is isosceles with its unequal
side smallest (or equilateral): the smallest angle is at most 60 degrees
and the two base angles are equal. classify_triplet applies exactly that
test to a single triangle; alpha_epsilon aggregates it over all (or a
seeded sample of) triplets into a coefficient in [0, 1]. rammal_index
and lerman_h quantify ultrametricity from the values alone, without
coordinates, and treves_hartmann_points emits per-triplet shape records
for external plotting.

Every triplet coefficient is one kernel run by triplets.iter_scan: each
window gathers its pair values once and computes what its caller asks
for, adding counts in window order and handing per-triplet columns on as
they come. coefficient_scan asks for all of them in one scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .hierarchy import minmax_path_closure
from .matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    _ArrayFieldsEq,
    euclidean_distances,
)
from .triplets import first_smallest, iter_scan, sort3

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


class Masked(NamedTuple):
    """A column blank where mask is true; matrixio writes it as a masked array, without numpy.ma."""
    data: np.ndarray
    mask: np.ndarray


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
    """Triangle sides (euclidean_distances', as in every scan) and angles of three points."""
    n = coords.n
    if len({i, j, k}) != 3:
        raise ValueError("triplet indices must be pairwise distinct")
    for idx in (i, j, k):
        if not 0 <= idx < n:
            raise ValueError(f"point index {idx} out of range")
    d = euclidean_distances(CoordinateMatrix(coords.coords[[i, j, k]])).values
    sides = d[[1, 0, 0], [2, 2, 1]]  # opposite i, j, k
    *angles, degen = _angles_from_sides(*sides[:, None])
    sides = tuple(map(float, sides))
    if bool(degen[0]):
        return TripletGeometry(i, j, k, sides, None, True)
    return TripletGeometry(i, j, k, sides, tuple(float(a[0]) for a in angles), False)


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


def coefficient_scan(
    d: DissimilarityMatrix,
    epsilon: float | None = None,
    sample: int | None = None,
    seed: int | None = None,
    *,
    lerman: bool = True,
    points: Callable | None = None,
    verdicts: Callable | None = None,
) -> tuple[UltrametricityReport | None, float | None, int, int]:
    """(alpha, Lerman H, Treves-Hartmann records, triplets without one) from one scan of d.

    With epsilon, d holds the points' euclidean_distances: alpha is
    alpha_epsilon's (None if every triplet is degenerate), and verdicts
    takes each window's scan_triplet_verdicts columns, apex and
    base_angle_diff as Masked pairs. With lerman, H is
    lerman_h's; points takes each window's treves_hartmann_points records.
    Columns go out in scan order as each window comes.
    """
    values, n = d.values, d.n
    if n < 3:
        raise ValueError(f"need at least three {'items' if epsilon is None else 'points'}")
    if epsilon is not None and not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if lerman:
        ranks = np.zeros((n, n))
        ranks[np.triu_indices(n, k=1)] = _average_ranks(d.condensed())
        ranks = ranks + ranks.T

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple:
        ij, ik, jk = values[ii, jj], values[ii, kk], values[jj, kk]
        counts, gap, shape, rows = (0, 0), 0.0, None, None
        if epsilon is not None:
            *angles, degen = _angles_from_sides(jk, ik, ij)
            if points is None:  # the verdicts' temporaries reuse the sides' memory
                del ij, ik, jk
            apex, diff, ultra = _classify_angles(angles, (ii, jj, kk), epsilon)
            del angles  # and the later parts reuse the angles'
            ultra &= ~degen
            counts = int(ultra.sum()), int(degen.sum())
            if verdicts is not None:
                rows = [ii, jj, kk, Masked(apex, degen), Masked(diff, degen), ultra]
        if lerman:
            _, mid, hi = sort3(ranks[ii, jj], ranks[ii, kk], ranks[jj, kk])
            gap = float((hi - mid).sum())
        if points is not None:
            lo, mid, hi = sort3(ij, ik, jk)
            ok = hi > 0.0
            lo, mid, hi = lo[ok], mid[ok], hi[ok]
            shape = [lo / hi, mid / hi, hi - mid]
        return ii.size, *counts, gap, shape, rows

    examined = ultrametric = degenerate = kept = 0
    gaps = 0.0
    for size, ultra, degen, gap, shape, rows in iter_scan(n, kernel, sample, seed):
        examined, ultrametric, degenerate, gaps = (
            examined + size, ultrametric + ultra, degenerate + degen, gaps + gap)
        if shape is not None:
            points(shape)
            kept += shape[0].size
        if rows is not None:
            verdicts(rows)
        del shape, rows  # before the next window is built
    alpha, counted, sampled = None, examined - degenerate, sample is not None
    if epsilon is not None and counted:
        alpha = UltrametricityReport(ultrametric / counted, counted, degenerate, epsilon,
                                     sampled, seed if sampled else None)
    h = gaps / (examined * (n * (n - 1) // 2 - 1)) if lerman else None
    return alpha, h, kept, examined - kept


def alpha_epsilon(
    coords: CoordinateMatrix,
    epsilon: float = DEFAULT_EPSILON,
    sample: int | None = None,
    seed: int | None = None,
) -> UltrametricityReport:
    """Fraction of non-degenerate triplets passing the isosceles test.

    Scans all n-choose-3 triplets, or `sample` seeded draws with
    replacement when sample is given. Degenerate triplets are excluded
    from the denominator but reported.
    """
    report = coefficient_scan(euclidean_distances(coords), epsilon, sample, seed, lerman=False)[0]
    if report is None:
        raise ValueError("every examined triplet was degenerate")
    return report


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
    blocks: list = []
    coefficient_scan(euclidean_distances(coords), epsilon, sample, seed, lerman=False,
                     verdicts=blocks.append)
    ii, jj, kk, apex, diff, ultra = zip(*blocks)
    apex, diff = (np.ma.MaskedArray(*map(np.concatenate, zip(*pairs))) for pairs in (apex, diff))
    return (*map(np.concatenate, (ii, jj, kk)), apex, diff, np.concatenate(ultra))


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
    return coefficient_scan(d, sample=sample, seed=seed)[1]


def treves_hartmann_points(
    d: DissimilarityMatrix,
    sample: int | None = None,
    seed: int | None = None,
) -> TrevesHartmannResult:
    """Shape record (min/max, med/max, max - med) for each triplet.

    Triplets whose largest value is zero have no defined shape; they are
    skipped and counted. Records appear in scan order.
    """
    blocks: list = []
    skipped = coefficient_scan(d, sample=sample, seed=seed, lerman=False,
                               points=blocks.append)[3]
    return TrevesHartmannResult(np.column_stack([np.concatenate(c) for c in zip(*blocks)]),
                                skipped)
