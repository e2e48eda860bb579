import tracemalloc

import numpy as np
import pytest

from umtk.hierarchy import minmax_path_closure
from umtk.matrices import CoordinateMatrix, DissimilarityMatrix, euclidean_distances

_ACCEPTANCE: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance.py" in report.nodeid:
        _ACCEPTANCE[report.nodeid] = report.outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for nodeid in sorted(_ACCEPTANCE):
        short = nodeid.split("::")[-1]
        verdict = "PASS" if _ACCEPTANCE[nodeid] == "passed" else "FAIL"
        terminalreporter.write_line(f"{short}: {verdict}")


def random_dissimilarity(rng: np.random.Generator, n: int) -> DissimilarityMatrix:
    vals = rng.uniform(0.1, 10.0, size=(n, n))
    d = np.triu(vals, 1)
    d = d + d.T
    return DissimilarityMatrix(d)


def random_ultrametric(rng: np.random.Generator, n: int) -> DissimilarityMatrix:
    """Random ultrametric: min-max path closure of a random dissimilarity."""
    u = minmax_path_closure(random_dissimilarity(rng, n))
    return DissimilarityMatrix(u.values, list(u.labels))


def decimal_grid(seed: int, decimals: int, scale: float) -> DissimilarityMatrix:
    """Distances of 4 to 69 seeded 3-d points at a random scale, rounded to
    `decimals` places and multiplied by `scale`: tied values that the
    linkage recurrences round differently."""
    rng = np.random.default_rng(seed)
    n = rng.integers(4, 70)
    points = rng.normal(size=(n, 3)) * 10 ** rng.uniform(-3, 3)
    d = euclidean_distances(CoordinateMatrix(points)).values
    return DissimilarityMatrix(np.round(d, decimals) * scale)


def random_points(rng: np.random.Generator, n: int, dim: int) -> np.ndarray:
    return rng.normal(size=(n, dim))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)


def row_tuples(*columns: np.ndarray) -> list[tuple]:
    """Rows of equal-length 1-D columns as Python tuples; masked entries become None."""
    return list(zip(*(c.tolist() for c in columns)))


def retained_triplets(retained: np.ndarray) -> set[tuple[int, int, int]]:
    """(i, j, k) of every row of an ultrametric_component result."""
    return set(row_tuples(retained["i"], retained["j"], retained["k"]))


def traced_peak(run):
    """(run(), the peak of the memory tracemalloc traced while it ran, in bytes)."""
    tracemalloc.start()
    try:
        result = run()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
