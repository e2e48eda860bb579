"""Seeded inputs for the benchmark workloads.

Every input is a pure function of (kind, n, seed): the same seed writes
byte-identical files. The files use the program's CSV layout (a label
row, then one labelled row per item, floats with 17 significant digits)
but are written here, not by umtk, so a change to the program's writers
cannot change what the program is given to read.
"""

from __future__ import annotations

from math import comb
from pathlib import Path

import numpy as np
from scipy.spatial.distance import pdist, squareform

CLUSTERS = 8
DIM = 5
#: Half-distances between the two halves, quarters and eighths of the centres.
LEVEL_SCALES = (24.0, 10.0, 4.0)
LAYOUT_SEED = 7


def cluster_centres() -> np.ndarray:
    """8 centres on a three-level binary tree, the same for every seed.

    Centre k sits at sum_b +-LEVEL_SCALES[b] * u_b, the sign taken from
    bit b of k, along fixed random unit directions u_b. The levels are far
    apart, so the seed moves points but not the cluster hierarchy: consensus
    counts, retained triplets and output sizes stay within a fraction of a
    percent across seeds, and a seed changes the measured work by little.
    """
    dirs = np.random.default_rng(LAYOUT_SEED).normal(size=(len(LEVEL_SCALES), DIM))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    signs = np.array([[1.0 if (k >> b) & 1 else -1.0 for b in range(len(LEVEL_SCALES))]
                      for k in range(CLUSTERS)])
    return (signs * np.array(LEVEL_SCALES)) @ dirs


def clustered_cloud(n: int, seed: int) -> np.ndarray:
    """n points in 5-d, equally many around each centre, one unit of spread."""
    members = np.arange(n) % CLUSTERS
    return cluster_centres()[members] + np.random.default_rng(seed).normal(size=(n, DIM))


def gaussian_cloud(n: int, seed: int) -> np.ndarray:
    """n unclustered standard-normal points in 5-d."""
    return np.random.default_rng(seed).normal(size=(n, DIM))


def distances(points: np.ndarray) -> np.ndarray:
    """Exactly symmetric Euclidean distance matrix with a zero diagonal."""
    return squareform(pdist(points))


def _labels(n: int) -> list[str]:
    return [f"p{i}" for i in range(n)]


def write_matrix(path: Path, values: np.ndarray, row_labels, col_labels) -> None:
    lines = ["," + ",".join(col_labels)]
    for label, row in zip(row_labels, values):
        lines.append(label + "," + ",".join(format(float(v), ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_coordinates(path: Path, points: np.ndarray) -> None:
    axes = [f"f{i + 1}" for i in range(points.shape[1])]
    write_matrix(path, points, _labels(points.shape[0]), axes)


def write_distances(path: Path, d: np.ndarray) -> None:
    labels = _labels(d.shape[0])
    write_matrix(path, d, labels, labels)


def describe(name: str, values: np.ndarray) -> dict:
    """n, C(n,3) and the number of distinct pair values of an input file.

    `values` is a square distance matrix, or an (n, 5) coordinate array
    whose pair values are its Euclidean distances.
    """
    n = values.shape[0]
    if values.shape == (n, DIM):
        pairs = pdist(values)
    else:
        pairs = values[np.triu_indices(n, k=1)]
    return {"file": name, "n": n, "triplets": comb(n, 3),
            "distinct_values": int(np.unique(pairs).size)}
