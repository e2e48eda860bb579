"""Extract the ultrametric component of a coordinate cloud.

Stage 1 finds the triplets on which two hierarchical clusterings of the
cloud agree morphologically (see consensus). Stage 2 re-examines each
agreed triplet in the original coordinates: the triangle must place its
smallest angle at the consensus apex, that angle must be at most 60
degrees, and the two base angles must differ by at most epsilon. The
retained triplets are the cloud's ultrametric component at that epsilon;
the profile of all pre-threshold base-angle differences shows how the
component grows as epsilon is relaxed.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .consensus import DEFAULT_TIE_TOLERANCE, _check_consensus_args, _matched_rows
from .hierarchy import cophenetic, linkage
from .matrices import CoordinateMatrix, _ArrayFieldsEq, euclidean_distances
from .triplets import scan
from .ultrametricity import ANGLE_SLACK, DEFAULT_EPSILON, _angles_from_sides


#: One retained triplet per row: its ids, base ids (base1's label sorts
#: first), apex id and base-angle difference in radians.
RETAINED_DTYPE = np.dtype([
    ("i", np.int64), ("j", np.int64), ("k", np.int64),
    ("base1", np.int64), ("base2", np.int64), ("apex", np.int64),
    ("base_angle_diff", np.float64),
])


@dataclass(eq=False)
class EpsilonProfile(_ArrayFieldsEq):
    """Base-angle differences of every consensus-matched triplet.

    sorted_diffs is ascending and covers all matched, geometrically
    non-degenerate triplets, before any threshold is applied;
    count_at_threshold counts how many lie at or below `threshold`.
    """

    sorted_diffs: np.ndarray
    threshold: float
    count_at_threshold: int


def epsilon_threshold_count(profile: EpsilonProfile, epsilon: float) -> int:
    """How many profile entries lie at or below epsilon (binary search)."""
    return int(np.searchsorted(profile.sorted_diffs, epsilon, side="right"))


def ultrametric_component(
    coords: CoordinateMatrix,
    criterion_a: str = "ward",
    criterion_b: str = "single",
    epsilon: float = DEFAULT_EPSILON,
    tie_tolerance: float = DEFAULT_TIE_TOLERANCE,
) -> tuple[np.ndarray, EpsilonProfile]:
    """Triplets on which clustering agreement and geometry both vote yes.

    Returns (retained triplets, epsilon profile). The retained triplets
    are a RETAINED_DTYPE structured array sorted by (base_angle_diff,
    base labels, apex label), labels compared as Python strings and
    exact ties left in ascending triplet order; base1 is the base vertex
    whose label sorts first. The profile records the base-angle
    difference of every consensus-matched triplet so the threshold can
    be re-examined without repeating the scan.
    """
    if coords.n < 3:
        raise ValueError("need at least three points")
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    _check_consensus_args([criterion_a, criterion_b], tie_tolerance)
    d = euclidean_distances(coords)
    u_a = cophenetic(linkage(d, criterion_a))
    u_b = cophenetic(linkage(d, criterion_b))
    # consensus_count's kernel without the ultrametric; the chunk list goes early
    rows = scan(coords.n, lambda *ids: _matched_rows(u_a, u_b, tie_tolerance, *ids)[0])
    rows = np.concatenate([np.zeros((0, 6), dtype=np.int64), *rows])
    ii, jj, kk, b_lo, b_hi, apex = rows.T
    values = d.values
    *angles, degen = _angles_from_sides(values[jj, kk], values[ii, kk], values[ii, jj])

    def angle_of(vertex: np.ndarray) -> np.ndarray:
        return np.where(vertex == ii, angles[0], np.where(vertex == jj, angles[1], angles[2]))

    a_apex, a_lo, a_hi = angle_of(apex), angle_of(b_lo), angle_of(b_hi)
    diff = np.abs(a_lo - a_hi)
    ok = ~degen
    keep = np.flatnonzero(
        ok
        & (a_apex <= np.minimum(a_lo, a_hi) + ANGLE_SLACK)
        & (a_apex <= math.pi / 3.0 + ANGLE_SLACK)
        & (diff <= epsilon)
    )
    _, rank = np.unique(np.array(coords.point_labels, dtype=object), return_inverse=True)
    swap = rank[b_lo] > rank[b_hi]
    base1, base2 = np.where(swap, b_hi, b_lo), np.where(swap, b_lo, b_hi)
    keep = keep[np.lexsort((rank[apex[keep]], rank[base2[keep]], rank[base1[keep]], diff[keep]))]
    retained = np.empty(keep.size, dtype=RETAINED_DTYPE)
    for name, col in zip(RETAINED_DTYPE.names, (ii, jj, kk, base1, base2, apex, diff)):
        retained[name] = col[keep]
    sorted_diffs = np.sort(diff[ok])
    profile = EpsilonProfile(
        sorted_diffs=sorted_diffs,
        threshold=epsilon,
        count_at_threshold=int(np.searchsorted(sorted_diffs, epsilon, side="right")),
    )
    return retained, profile
