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

from .consensus import DEFAULT_TIE_TOLERANCE, _matched_triplets, _require_inversion_free
from .hierarchy import cophenetic, linkage
from .matrices import CoordinateMatrix, euclidean_distances
from .ultrametricity import ANGLE_SLACK, DEFAULT_EPSILON, _angles_from_sides


@dataclass
class ComponentTriplet:
    """One retained triplet: base pair, apex, and base-angle difference."""

    base_labels: tuple[str, str]
    apex_label: str
    base_angle_diff: float
    triplet: tuple[int, int, int]


@dataclass
class EpsilonProfile:
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
) -> tuple[list[ComponentTriplet], EpsilonProfile]:
    """Triplets on which clustering agreement and geometry both vote yes.

    Returns (retained triplets, epsilon profile). Retained triplets are
    sorted by (base_angle_diff, base labels, apex label); base labels are
    ordered alphabetically within each row. The profile records the
    base-angle difference of every consensus-matched triplet so the
    threshold can be re-examined without repeating the scan.
    """
    if coords.n < 3:
        raise ValueError("need at least three points")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    _require_inversion_free([criterion_a, criterion_b])
    d = euclidean_distances(coords)
    u_a = cophenetic(linkage(d, criterion_a))
    u_b = cophenetic(linkage(d, criterion_b))
    rows, _ = _matched_triplets(u_a, u_b, tie_tolerance)
    labels = coords.point_labels
    sorted_diffs = np.zeros(0)
    retained: list[ComponentTriplet] = []
    if rows.shape[0]:
        ii, jj, kk = rows[:, 0], rows[:, 1], rows[:, 2]
        b_lo, b_hi, apex = rows[:, 3], rows[:, 4], rows[:, 5]
        values = d.values
        ang_i, ang_j, ang_k, degen = _angles_from_sides(
            values[jj, kk], values[ii, kk], values[ii, jj]
        )
        angles = {0: ang_i, 1: ang_j, 2: ang_k}
        # map vertex ids to their position (i, j or k) within each row
        def angle_of(vertex: np.ndarray) -> np.ndarray:
            out = np.where(
                vertex == ii, angles[0], np.where(vertex == jj, angles[1], angles[2])
            )
            return out

        a_apex = angle_of(apex)
        a_lo = angle_of(b_lo)
        a_hi = angle_of(b_hi)
        diff = np.abs(a_lo - a_hi)
        ok = ~degen
        apex_is_min = a_apex <= np.minimum(a_lo, a_hi) + ANGLE_SLACK
        keep = (
            ok
            & apex_is_min
            & (a_apex <= math.pi / 3.0 + ANGLE_SLACK)
            & (diff <= epsilon)
        )
        sorted_diffs = np.sort(diff[ok])
        for t in np.nonzero(keep)[0]:
            pair = sorted([labels[int(b_lo[t])], labels[int(b_hi[t])]])
            retained.append(
                ComponentTriplet(
                    base_labels=(pair[0], pair[1]),
                    apex_label=labels[int(apex[t])],
                    base_angle_diff=float(diff[t]),
                    triplet=(int(ii[t]), int(jj[t]), int(kk[t])),
                )
            )
    retained.sort(key=lambda r: (r.base_angle_diff, r.base_labels, r.apex_label))
    profile = EpsilonProfile(
        sorted_diffs=sorted_diffs,
        threshold=epsilon,
        count_at_threshold=int(np.searchsorted(sorted_diffs, epsilon, side="right")),
    )
    return retained, profile
