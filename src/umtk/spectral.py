"""Spectral embeddings of dissimilarities and contingency tables.

Two routes into factor space are provided. Classical scaling (pcoa)
double-centers squared dissimilarities and eigendecomposes the result;
the signed spectrum doubles as a diagnostic of how far the input is from
being Euclidean-embeddable. Correspondence analysis (correspondence_
analysis) decomposes a nonnegative frequency table so that Euclidean
distances between full-space row points equal chi-squared distances
between row profiles.

Parameters
----------
All eigen/singular decisions share one tolerance convention: a value is
treated as zero when its magnitude is at most `tolerance` times the
largest magnitude in the spectrum. Eigenvectors and singular vector
pairs are sign-fixed so the entry of largest magnitude (lowest index on
ties) is positive, which makes outputs reproducible across LAPACK
builds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matrices import CoordinateMatrix, DissimilarityMatrix, FrequencyMatrix, _ArrayFieldsEq

DEFAULT_ZERO_TOLERANCE = 1e-10


@dataclass(eq=False)
class SpectralResult(_ArrayFieldsEq):
    """Full signed spectrum of a symmetric matrix, eigenvalues descending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=np.float64)
        if self.eigenvalues.ndim != 1:
            raise ValueError("eigenvalues must be a 1-d array")
        if self.eigenvectors.ndim != 2 or (
            self.eigenvectors.shape[1] != self.eigenvalues.shape[0]
        ):
            raise ValueError("eigenvector columns must match eigenvalues")
        if np.any(np.diff(self.eigenvalues) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        gram = self.eigenvectors.T @ self.eigenvectors
        if not np.allclose(gram, np.eye(gram.shape[0]), atol=1e-9):
            raise ValueError("eigenvectors must be orthonormal")


@dataclass
class MetricityReport:
    """How much of the spectrum's mass sits on the positive side.

    coefficient = positive_mass / total_abs_mass, with eigenvalues inside
    the zero tolerance treated as exactly zero, so the coefficient is 1.0
    exactly when no eigenvalue is meaningfully negative.
    """

    positive_mass: float
    total_abs_mass: float
    coefficient: float


@dataclass(eq=False)
class CaResult(_ArrayFieldsEq):
    """Row and column factor coordinates of a frequency table."""

    row_coords: CoordinateMatrix
    col_coords: CoordinateMatrix
    row_masses: np.ndarray
    col_masses: np.ndarray
    singular_values: np.ndarray


def _signs(vectors: np.ndarray) -> np.ndarray:
    """Each column's +-1.0 that makes its largest-magnitude entry positive."""
    peak = vectors[np.abs(vectors).argmax(axis=0), np.arange(vectors.shape[1])]
    return np.where(peak < 0, -1.0, 1.0)


def gram_from_distances(d: DissimilarityMatrix) -> np.ndarray:
    """Double-center squared dissimilarities into an inner-product matrix.

    Returns A with A[i, k] = -0.5 * (d[i, k]**2 - m_i - m_k + m), where
    m_i are row means of the squared matrix and m is its grand mean. Rows
    and columns of A sum to zero; A is positive semidefinite exactly when
    d is Euclidean-embeddable.
    """
    sq = d.values ** 2
    row_means = sq.mean(axis=1)
    grand_mean = sq.mean()
    centered = (sq - (row_means[:, None] + row_means[None, :])) + grand_mean
    return -0.5 * centered


def _spectrum(a: np.ndarray) -> SpectralResult:
    w, v = np.linalg.eigh(a)
    order = np.argsort(w)[::-1]
    v = v[:, order]
    return SpectralResult(w[order], v * _signs(v))


def _metricity(eigenvalues: np.ndarray, tolerance: float) -> MetricityReport:
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    cutoff = tolerance * scale
    positive = float(eigenvalues[eigenvalues > cutoff].sum())
    negative = float(-eigenvalues[eigenvalues < -cutoff].sum())
    total = positive + negative
    if total == 0.0:
        raise ValueError("zero spectrum: metricity undefined")
    return MetricityReport(positive, total, positive / total)


def metricity_coefficient(
    spectral: SpectralResult, tolerance: float = DEFAULT_ZERO_TOLERANCE
) -> float:
    """Share of absolute eigenvalue mass carried by positive eigenvalues.

    Equals 1.0 exactly when no eigenvalue lies below minus the zero
    tolerance. Raises on an all-zero spectrum.
    """
    return _metricity(spectral.eigenvalues, tolerance).coefficient


def pcoa(
    d: DissimilarityMatrix, tolerance: float = DEFAULT_ZERO_TOLERANCE
) -> tuple[CoordinateMatrix, SpectralResult, MetricityReport]:
    """Classical scaling of a dissimilarity matrix.

    Coordinates use the eigenvectors of the double-centered matrix whose
    eigenvalues exceed the zero tolerance, each scaled by the square root
    of its eigenvalue. When the input is Euclidean-embeddable the
    pairwise distances between coordinate rows reproduce the input.

    Raises
    ------
    ValueError
        If no eigenvalue is positive beyond the tolerance (for example an
        all-zero input), since no coordinates can be produced.
    """
    if d.n < 2:
        raise ValueError("need at least two items")
    spectral = _spectrum(gram_from_distances(d))
    w = spectral.eigenvalues
    scale = float(np.max(np.abs(w)))
    cutoff = tolerance * scale
    keep = w > cutoff
    if scale == 0.0 or not np.any(keep):
        raise ValueError("degenerate input: no positive eigenvalue")
    coords = spectral.eigenvectors[:, keep] * np.sqrt(w[keep])[None, :]
    report = _metricity(w, tolerance)
    return CoordinateMatrix(coords, list(d.labels)), spectral, report


def correspondence_analysis(
    f: FrequencyMatrix, tolerance: float = DEFAULT_ZERO_TOLERANCE
) -> CaResult:
    """Factor the standardized residuals of a frequency table.

    The matrix of standardized residuals
    S = D_r^{-1/2} (P - r c^T) D_c^{-1/2}, with P the table normalized to
    sum 1 and r, c its margins, is decomposed by SVD directly. Row
    coordinates are D_r^{-1/2} U Sigma and column coordinates
    D_c^{-1/2} V Sigma, keeping the singular values above the zero
    tolerance, capped at min(rows, cols) - 1 axes. Euclidean distance
    between full-space row points equals the chi-squared distance between
    the corresponding row profiles.

    Raises
    ------
    ValueError
        If any row or column sums to zero (the offending label is named;
        filter before calling).
    """
    values = f.values
    row_sums = values.sum(axis=1)
    col_sums = values.sum(axis=0)
    for idx in np.nonzero(row_sums == 0.0)[0]:
        raise ValueError(f"zero row in frequency table: {f.row_labels[idx]!r}")
    for idx in np.nonzero(col_sums == 0.0)[0]:
        raise ValueError(f"zero column in frequency table: {f.col_labels[idx]!r}")
    total = values.sum()
    s = values / total  # P, then S in its place: inv_sqrt_r * (P - r c^T) * inv_sqrt_c, in order
    r = s.sum(axis=1)
    c = s.sum(axis=0)
    inv_sqrt_r = 1.0 / np.sqrt(r)
    inv_sqrt_c = 1.0 / np.sqrt(c)
    s -= np.outer(r, c)
    s *= inv_sqrt_r[:, None]
    s *= inv_sqrt_c[None, :]
    u, sigma, vt = np.linalg.svd(s, full_matrices=False)
    del s
    max_axes = min(values.shape) - 1
    if sigma.size and sigma[0] > 0.0:
        keep = int(np.count_nonzero(sigma > tolerance * sigma[0]))
    else:
        keep = 0
    keep = min(keep, max_axes)
    # sign convention is decided on U and applied to the (u, v) pair
    signs = _signs(u[:, :keep])
    u = u[:, :keep] * signs
    v = vt[:keep, :].T * signs
    del vt
    sigma = sigma[:keep]
    row_coords = inv_sqrt_r[:, None] * u * sigma[None, :]
    v *= inv_sqrt_c[:, None]
    v *= sigma[None, :]
    return CaResult(
        CoordinateMatrix(row_coords, list(f.row_labels)),
        CoordinateMatrix(v, list(f.col_labels)),
        r,
        c,
        sigma,
    )


def select_columns(ca: CaResult, labels: list[str]) -> CoordinateMatrix:
    """Full-space column coordinates for the requested labels, in order.

    Duplicate requests yield duplicated rows. Unknown labels raise a
    KeyError naming the label.
    """
    index = {}
    for i, lab in enumerate(ca.col_coords.point_labels):
        index.setdefault(lab, i)
    rows = []
    for lab in labels:
        if lab not in index:
            raise KeyError(f"unknown column label: {lab!r}")
        rows.append(ca.col_coords.coords[index[lab]])
    coords = (
        np.array(rows, dtype=np.float64)
        if rows
        else np.zeros((0, ca.col_coords.dim))
    )
    return CoordinateMatrix(coords, [str(x) for x in labels])
