"""Triangle-inequality diagnostics and metric repairs.

check_metric and check_ultrametric scan every unordered triple of items
and report the ones whose worst orientation violates the (strong)
triangle inequality by more than a tolerance. cailliez_additive and
power_shrink turn a non-metric dissimilarity into a metric one, either
by adding the smallest constant that works or by raising the values to
the largest power in (0, 1] that works.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matrices import DissimilarityMatrix, _ArrayFieldsEq
from .triplets import DEFAULT_CHUNK, scan, sort3

#: Relative factor used to derive the default check tolerance for repairs.
REPAIR_TOLERANCE_FACTOR = 1e-12


@dataclass(eq=False)
class ViolationReport(_ArrayFieldsEq):
    """Triples violating a triangle-type inequality, worst slack each.

    kind is "triangle" or "strong-triangle". triples is an (m, 3) int64
    array of rows (i, j, k) with i < j < k, listed once each in
    ascending order; slack[t] is the excess of the worst of the three
    orientations of triples[t]. The report is true when m > 0.
    """

    kind: str
    triples: np.ndarray
    slack: np.ndarray

    def __bool__(self) -> bool:
        return bool(self.slack.size)


def _scan_violations(
    d: DissimilarityMatrix, kind: str, tolerance: float
) -> ViolationReport:
    if not tolerance >= 0:
        raise ValueError("tolerance must be nonnegative")

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lo, mid, hi = sort3(d.values[ii, jj], d.values[ii, kk], d.values[jj, kk])
        slack = hi - mid if kind == "strong-triangle" else hi - mid - lo
        bad = slack > tolerance
        return np.column_stack([ii[bad], jj[bad], kk[bad]]), slack[bad]

    results = scan(d.n, kernel)
    return ViolationReport(
        kind,
        np.concatenate([np.zeros((0, 3), dtype=np.int64), *(t for t, _ in results)]),
        np.concatenate([np.zeros(0), *(s for _, s in results)]),
    )


def check_metric(d: DissimilarityMatrix, tolerance: float = 0.0) -> ViolationReport:
    """Report triples where the largest side exceeds the sum of the others.

    A triple (i, j, k) is reported when max - (mid + min) of its three
    pair values exceeds `tolerance`; the slack recorded is that excess,
    which is the worst of the three orientations of the triangle
    inequality.
    """
    return _scan_violations(d, "triangle", tolerance)


def check_ultrametric(
    d: DissimilarityMatrix, tolerance: float = 0.0
) -> ViolationReport:
    """Report triples where the two largest pair values differ.

    The strong triangle inequality holds on a triple exactly when its two
    largest values are equal, so the recorded slack is max - mid.
    """
    return _scan_violations(d, "strong-triangle", tolerance)


#: Most candidate triples power_shrink keeps; with more it scans them all.
_CANDIDATE_CAP = 1_000_000
#: Slack, as a share of the largest value, at or below which a triple is
#: settled; the rounding of ``**`` and two subtractions is under 1e-15.
_SETTLED_MARGIN = 1e-9


def _worst_metric_slack(
    values: np.ndarray, n: int, ids: np.ndarray | None = None, floor: float | None = None
) -> tuple[float, np.ndarray | None]:
    """Largest triangle slack over the (3, m) triple ids, or all triples.

    Given a floor, it also returns the ids of the triples whose slack is
    not at or below it, or None if there are more than _CANDIDATE_CAP.
    """
    kept: list[np.ndarray] | None = None if floor is None else []
    count = 0

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> float:
        nonlocal kept, count
        lo, mid, hi = sort3(values[ii, jj], values[ii, kk], values[jj, kk])
        slack = hi - mid - lo
        if kept is not None:
            open_ = ~(slack <= floor)
            kept.append(np.stack([ii[open_], jj[open_], kk[open_]]))
            count += kept[-1].shape[1]
            if count > _CANDIDATE_CAP:
                kept = None
        return float(slack.max())

    if ids is None:
        worsts = scan(n, kernel)
    else:
        windows = range(0, ids.shape[1], DEFAULT_CHUNK)
        worsts = [kernel(*ids[:, lo : lo + DEFAULT_CHUNK]) for lo in windows]
    worst = max([-np.inf, *worsts])
    if kept is None:
        return worst, None
    return worst, np.concatenate([np.zeros((3, 0), np.int64), *kept], axis=1)


def cailliez_additive(d: DissimilarityMatrix) -> tuple[DissimilarityMatrix, float]:
    """Add the smallest constant to all off-diagonal entries to get a metric.

    Returns (repaired matrix, constant). The constant is the largest
    triangle-inequality excess over all triples, clamped below at zero,
    nudged upward by at most a few ulp if rounding in the shifted matrix
    would otherwise leave a residual violation. With fewer than three
    items the input is already metric and the constant is zero.
    """
    if d.n < 3:
        return DissimilarityMatrix(d.values.copy(), list(d.labels)), 0.0
    c = max(0.0, _worst_metric_slack(d.values, d.n)[0])
    if c == 0.0:
        return DissimilarityMatrix(d.values.copy(), list(d.labels)), 0.0
    for _ in range(100):
        shifted = d.values + c
        np.fill_diagonal(shifted, 0.0)
        residual = _worst_metric_slack(shifted, d.n)[0]
        if residual <= 0.0:
            break
        c += residual
    else:
        raise RuntimeError("additive repair failed to converge")
    return DissimilarityMatrix(shifted, list(d.labels)), c


def power_shrink(
    d: DissimilarityMatrix, r_tolerance: float = 1e-6
) -> tuple[DissimilarityMatrix, float]:
    """Raise dissimilarities to the largest power in (0, 1] giving a metric.

    Returns (matrix of d**r, r) where r is located by bisection to within
    r_tolerance and the returned matrix is certified metric. Zero
    off-diagonal entries are rejected since no power separates them.

    A triple metric at r0 is metric at every r < r0 (x ** (r / r0) is
    subadditive), so after each failed test, which lowers the upper end,
    the bisection re-scans only the triples that can still decide it.
    Every test decides as a scan of all triples would.
    """
    if not r_tolerance > 0:
        raise ValueError("r_tolerance must be positive")
    off_diag = ~np.eye(d.n, dtype=bool)
    if np.any(d.values[off_diag] == 0.0):
        raise ValueError(
            "power repair requires positive off-diagonal dissimilarities"
        )

    def is_metric(values: np.ndarray, ids: np.ndarray | None, keep: bool):
        scale = float(values.max())
        floor = -_SETTLED_MARGIN * scale if keep else None
        worst, kept = _worst_metric_slack(values, d.n, ids, floor)
        return worst <= REPAIR_TOLERANCE_FACTOR * scale, kept

    def candidate(r: float) -> np.ndarray:
        out = d.values ** r
        np.fill_diagonal(out, 0.0)
        return out

    passed, ids = (True, None) if d.n < 3 else is_metric(d.values, None, keep=True)
    if passed:
        return DissimilarityMatrix(d.values.copy(), list(d.labels)), 1.0
    # a failure here leaves hi at 1, so it must not drop triples
    lo = 0.5
    while not is_metric(candidate(lo), ids, keep=False)[0]:
        lo *= 0.5
        if lo < 1e-18:
            raise RuntimeError("no metric power found")
    hi = 1.0
    while hi - lo > r_tolerance:
        mid = 0.5 * (lo + hi)
        passed, kept = is_metric(candidate(mid), ids, keep=True)
        if passed:
            lo = mid
        else:
            # what this test settled cannot decide a test below mid
            hi, ids = mid, kept
    return DissimilarityMatrix(candidate(lo), list(d.labels)), lo
