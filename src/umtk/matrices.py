"""Labeled matrix containers shared across the package.

All containers validate their structural invariants at construction time
so downstream numerics can assume them. Values are always stored as
float64 arrays; labels are plain strings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

#: Cells per row block of euclidean_distances' accumulator.
_BLOCK_CELLS = 1 << 16


def _as_float_matrix(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-d array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _default_labels(count: int, prefix: str = "x") -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


class _ArrayFieldsEq:
    """Field-wise == for dataclasses (eq=False) whose compared fields hold arrays."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self) if f.compare)
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in pairs
        )


@dataclass(eq=False)
class _SymmetricMatrix(_ArrayFieldsEq):
    """Square symmetric labeled matrix, zero diagonal; _kind names it in errors."""

    values: np.ndarray
    labels: list[str] = field(default_factory=list)

    _kind = "symmetric matrix"

    def __post_init__(self) -> None:
        self.values = _as_float_matrix(self.values, self._kind)
        self.labels = [str(x) for x in self.labels] or _default_labels(
            self.values.shape[0]
        )
        arr, labels, name = self.values, self.labels, self._kind
        n_rows, n_cols = arr.shape
        if n_rows != n_cols:
            raise ValueError(f"{name} must be square, got shape {arr.shape}")
        if len(labels) != n_rows:
            raise ValueError(
                f"{name} has {n_rows} rows but {len(labels)} labels"
            )
        if not np.array_equal(arr, arr.T):
            gap = np.abs(arr - arr.T)
            # the first maximum in row-major order lies above the diagonal
            i, j = np.unravel_index(int(np.argmax(gap)), gap.shape)
            raise ValueError(
                f"{name} must be symmetric: entries ({i}, {j}) and ({j}, {i}) "
                f"({labels[i]!r}, {labels[j]!r}) differ by {float(gap[i, j])!r}, "
                "the largest asymmetry"
            )
        if np.any(np.diag(arr) != 0.0):
            raise ValueError(f"{name} must have a zero diagonal")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def condensed(self) -> np.ndarray:
        """Strict upper triangle in row-major pair order."""
        iu = np.triu_indices(self.n, k=1)
        return self.values[iu]


class DissimilarityMatrix(_SymmetricMatrix):
    """Square symmetric nonnegative dissimilarities with a zero diagonal."""

    _kind = "dissimilarity matrix"

    def __post_init__(self) -> None:
        super().__post_init__()
        if np.any(self.values < 0.0):
            raise ValueError("dissimilarity matrix must be nonnegative")


class UltrametricMatrix(_SymmetricMatrix):
    """Square symmetric matrix of cophenetic-style levels, zero diagonal.

    The strong triangle inequality is a property of how the matrix was
    produced (for example from an inversion-free dendrogram); it is not
    re-verified at construction. Use check_ultrametric for that.
    """

    _kind = "ultrametric matrix"


@dataclass(eq=False)
class CoordinateMatrix(_ArrayFieldsEq):
    """n points in p-dimensional real space, one row per point."""

    coords: np.ndarray
    point_labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.coords = _as_float_matrix(self.coords, "coordinate matrix")
        self.point_labels = [str(x) for x in self.point_labels] or _default_labels(
            self.coords.shape[0]
        )
        if len(self.point_labels) != self.coords.shape[0]:
            raise ValueError(
                f"coordinate matrix has {self.coords.shape[0]} points "
                f"but {len(self.point_labels)} labels"
            )

    @property
    def n(self) -> int:
        return self.coords.shape[0]

    @property
    def dim(self) -> int:
        return self.coords.shape[1]


@dataclass(eq=False)
class FrequencyMatrix(_ArrayFieldsEq):
    """Nonnegative counts or frequencies cross-tabulating rows by columns."""

    values: np.ndarray
    row_labels: list[str] = field(default_factory=list)
    col_labels: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.values = _as_float_matrix(self.values, "frequency matrix")
        self.row_labels = [str(x) for x in self.row_labels] or _default_labels(
            self.values.shape[0], "r"
        )
        self.col_labels = [str(x) for x in self.col_labels] or _default_labels(
            self.values.shape[1], "c"
        )
        if len(self.row_labels) != self.values.shape[0]:
            raise ValueError("frequency matrix row label count mismatch")
        if len(self.col_labels) != self.values.shape[1]:
            raise ValueError("frequency matrix column label count mismatch")
        if np.any(self.values < 0.0):
            raise ValueError("frequency matrix must be nonnegative")
        if self.values.sum() <= 0.0:
            raise ValueError("frequency matrix grand total must be positive")


def euclidean_distances(coords: CoordinateMatrix) -> DissimilarityMatrix:
    """Pairwise Euclidean distances between the rows of a coordinate set.

    Bit for bit scipy's pdist: squared differences summed in coordinate
    order from zero, then sqrt, over mirrored row blocks of the upper triangle.
    """
    n = coords.n
    if n < 1:
        raise ValueError("need at least one point")
    values = np.empty((n, n))
    columns = np.ascontiguousarray(coords.coords.T)
    step = max(1, _BLOCK_CELLS // n)
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        acc = np.zeros((r1 - r0, n - r0))
        diff = np.empty_like(acc)  # one buffer per block, not two arrays per coordinate
        for c in columns:
            np.subtract(c[r0:r1, None], c[None, r0:], out=diff)
            acc += np.multiply(diff, diff, out=diff)
        np.sqrt(acc, out=acc)
        values[r0:r1, r0:] = acc
        values[r0:, r0:r1] = acc.T
    return DissimilarityMatrix(values, list(coords.point_labels))
