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
from .triplets import scan, sorted_pair_values

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
    if tolerance < 0:
        raise ValueError("tolerance must be nonnegative")

    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = sorted_pair_values(d.values, ii, jj, kk)
        slack = s[2] - s[1] if kind == "strong-triangle" else s[2] - s[1] - s[0]
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


def _worst_metric_slack(values: np.ndarray, n: int) -> float:
    def kernel(ii: np.ndarray, jj: np.ndarray, kk: np.ndarray) -> float:
        s = sorted_pair_values(values, ii, jj, kk)
        return float((s[2] - s[1] - s[0]).max())

    return max([-np.inf, *scan(n, kernel)])


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
    c = max(0.0, _worst_metric_slack(d.values, d.n))
    if c == 0.0:
        return DissimilarityMatrix(d.values.copy(), list(d.labels)), 0.0
    for _ in range(100):
        shifted = d.values + c
        np.fill_diagonal(shifted, 0.0)
        residual = _worst_metric_slack(shifted, d.n)
        if residual <= 0.0:
            break
        c += residual
    else:
        raise RuntimeError("additive repair failed to converge")
    return DissimilarityMatrix(shifted, list(d.labels)), c


def _is_metric(values: np.ndarray, n: int) -> bool:
    worst = _worst_metric_slack(values, n)
    scale = float(values.max())
    return worst <= REPAIR_TOLERANCE_FACTOR * scale


def power_shrink(
    d: DissimilarityMatrix, r_tolerance: float = 1e-6
) -> tuple[DissimilarityMatrix, float]:
    """Raise dissimilarities to the largest power in (0, 1] giving a metric.

    Returns (matrix of d**r, r) where r is located by bisection to within
    r_tolerance and the returned matrix is certified metric. Zero
    off-diagonal entries are rejected since no power separates them.
    """
    if r_tolerance <= 0:
        raise ValueError("r_tolerance must be positive")
    off_diag = ~np.eye(d.n, dtype=bool)
    if np.any(d.values[off_diag] == 0.0):
        raise ValueError(
            "power repair requires positive off-diagonal dissimilarities"
        )
    if d.n < 3 or _is_metric(d.values, d.n):
        return DissimilarityMatrix(d.values.copy(), list(d.labels)), 1.0

    def candidate(r: float) -> np.ndarray:
        out = d.values ** r
        np.fill_diagonal(out, 0.0)
        return out

    lo = 0.5
    while not _is_metric(candidate(lo), d.n):
        lo *= 0.5
        if lo < 1e-18:
            raise RuntimeError("no metric power found")
    hi = 1.0
    while hi - lo > r_tolerance:
        mid = 0.5 * (lo + hi)
        if _is_metric(candidate(mid), d.n):
            lo = mid
        else:
            hi = mid
    return DissimilarityMatrix(candidate(lo), list(d.labels)), lo
