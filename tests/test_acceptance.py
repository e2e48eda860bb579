"""End-to-end acceptance checks, one test per criterion.

Each test prints a PASS/FAIL line in the terminal summary (see
conftest.py) so the whole gate can be read at a glance.
"""

import math
import time
from collections import deque

import numpy as np

from umtk.consensus import consensus_count, consensus_table
from umtk.component import ultrametric_component
from umtk.corpus import random_mirror
from umtk.hierarchy import (
    cophenetic,
    linkage,
    mst_kruskal,
    minmax_path_closure,
)
from umtk.matrices import CoordinateMatrix, DissimilarityMatrix, euclidean_distances
from umtk.matrixio import write_frequency
from umtk.spectral import correspondence_analysis, pcoa, select_columns
from umtk.transforms import cailliez_additive, check_metric
from umtk.triplets import iter_scan, triplet_count
from umtk.ultrametricity import DEFAULT_EPSILON, alpha_epsilon, rammal_index
from umtk.cli import main as cli_main

from .conftest import random_dissimilarity, random_ultrametric, retained_triplets, row_tuples
from .oracles import brute_component, brute_consensus


def mst_path_maxima(d: np.ndarray) -> np.ndarray:
    """Max edge weight along the MST path between every leaf pair."""
    n = d.shape[0]
    tree = mst_kruskal(DissimilarityMatrix(d))
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i, j, w in tree.edges:
        adjacency[i].append((j, w))
        adjacency[j].append((i, w))
    out = np.zeros((n, n))
    for start in range(n):
        reach = {start: 0.0}
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for nb, w in adjacency[v]:
                if nb not in reach:
                    reach[nb] = max(reach[v], w)
                    queue.append(nb)
        for other, value in reach.items():
            out[start, other] = value
    return out


def test_criterion_01_exhaustive_triplet_count():
    start = time.perf_counter()
    enumerated = sum(iter_scan(30, lambda ii, jj, kk: ii.size))
    elapsed = time.perf_counter() - start
    assert triplet_count(30) == 4060
    assert enumerated == 4060
    assert elapsed < 1.0


def test_criterion_02_self_consensus_full_diagonal(rng):
    pts = CoordinateMatrix(rng.normal(size=(30, 3)))
    u = cophenetic(linkage(euclidean_distances(pts), "single"))
    report = consensus_count(u, u)
    assert report.total_triplets == 4060
    assert report.matched == 4060
    assert report.skipped_ties == 0


def test_criterion_03_subdominant_triple_equivalence(rng):
    start = time.perf_counter()
    for _ in range(50):
        n = int(rng.integers(5, 61))
        d = random_dissimilarity(rng, n)
        single = cophenetic(linkage(d, "single")).values
        closure = minmax_path_closure(d).values
        tree_path = mst_path_maxima(d.values)
        assert np.max(np.abs(single - closure)) <= 1e-12
        assert np.max(np.abs(single - tree_path)) <= 1e-12
    assert time.perf_counter() - start < 10.0


def test_criterion_04_extremal_ultrametric_bounds(rng):
    for _ in range(50):
        n = int(rng.integers(4, 40))
        d = random_dissimilarity(rng, n)
        lower = cophenetic(linkage(d, "single")).values
        upper = cophenetic(linkage(d, "complete")).values
        assert np.all(lower <= d.values)
        assert np.all(upper >= d.values)


def test_criterion_05_pcoa_round_trip_and_repair(rng):
    for _ in range(20):
        n = int(rng.integers(4, 101))
        dim = int(rng.integers(1, 11))
        pts = CoordinateMatrix(rng.normal(size=(n, dim)))
        d = euclidean_distances(pts)
        coords, _, metricity = pcoa(d)
        rebuilt = euclidean_distances(coords)
        scale = d.values.max()
        assert np.max(np.abs(rebuilt.values - d.values)) <= 1e-9 * scale
        assert metricity.coefficient >= 1.0 - 1e-9
    for _ in range(20):
        # a triangle-violating triple: one side longer than the other two
        # combined, so the additive repair is exactly the slack
        a, b = np.sort(rng.uniform(0.5, 5.0, size=2))
        long_side = a + b + float(rng.uniform(0.5, 5.0))
        values = np.array(
            [[0.0, a, long_side], [a, 0.0, b], [long_side, b, 0.0]]
        )
        broken = DissimilarityMatrix(values)
        assert check_metric(broken)
        _, _, metricity = pcoa(broken)
        assert metricity.coefficient < 1.0
        repaired, constant = cailliez_additive(broken)
        assert constant > 0.0
        _, _, fixed = pcoa(repaired)
        assert fixed.coefficient >= 1.0 - 1e-9
    for _ in range(20):
        # larger violators: the additive repair certifiably restores the
        # triangle inequality and strictly raises the embeddability
        # coefficient, though full flatness is specific to triples
        n = int(rng.integers(4, 30))
        pts = CoordinateMatrix(rng.normal(size=(n, 3)))
        values = euclidean_distances(pts).values.copy()
        values[0, 1] = values[1, 0] = 2.5 * values.max()
        broken = DissimilarityMatrix(values)
        assert check_metric(broken)
        _, _, metricity = pcoa(broken)
        assert metricity.coefficient < 1.0
        repaired, _ = cailliez_additive(broken)
        assert not check_metric(repaired)
        _, _, improved = pcoa(repaired)
        assert improved.coefficient > metricity.coefficient


def test_criterion_06_alpha_sanity_and_scan_speed(rng):
    equilateral = CoordinateMatrix(
        np.array([[0.0, 0.0], [1.0, 0.0], [0.5, math.sqrt(3.0) / 2.0]])
    )
    assert alpha_epsilon(equilateral).alpha == 1.0
    right_iso = CoordinateMatrix(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert alpha_epsilon(right_iso).alpha == 0.0

    u = random_ultrametric(rng, 12)
    embedded, _, _ = pcoa(u)
    report = alpha_epsilon(embedded, DEFAULT_EPSILON)
    assert report.alpha == 1.0

    big = CoordinateMatrix(rng.normal(size=(200, 3)))
    assert triplet_count(200) == 1_313_400
    start = time.perf_counter()
    report = alpha_epsilon(big)
    elapsed = time.perf_counter() - start
    assert report.counted + report.excluded_degenerate == 1_313_400
    assert elapsed < 30.0
    assert elapsed < 5.0


def test_criterion_07_rammal_properties(rng):
    u = random_ultrametric(rng, 15)
    assert rammal_index(u) == 0.0
    triple = DissimilarityMatrix(
        np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
    )
    assert rammal_index(triple) == 1.0 / 6.0
    for _ in range(20):
        n = int(rng.integers(4, 25))
        d = random_dissimilarity(rng, n)
        base = rammal_index(d)
        doubled = DissimilarityMatrix(d.values * 2.0, list(d.labels))
        assert rammal_index(doubled) == base
        stretched = DissimilarityMatrix(d.values * 3.7, list(d.labels))
        assert math.isclose(rammal_index(stretched), base, rel_tol=1e-12)


def test_criterion_08_consensus_against_bruteforce(rng):
    for _ in range(100):
        pts = CoordinateMatrix(rng.normal(size=(8, 3)))
        d = euclidean_distances(pts)
        u_a = cophenetic(linkage(d, "ward"))
        u_b = cophenetic(linkage(d, "single"))
        report = consensus_count(u_a, u_b)
        expected_set, expected_skips = brute_consensus(u_a.values, u_b.values, 1e-9)
        assert set(row_tuples(*report.matched_set.T)) == expected_set
        assert report.skipped_ties == expected_skips
        retained, _ = ultrametric_component(pts)
        expected_retained = brute_component(pts.coords, expected_set, DEFAULT_EPSILON)
        assert retained_triplets(retained) == expected_retained


def test_criterion_09_mirror_pipeline():
    start = time.perf_counter()
    table = random_mirror(139, 2000, seed=1)
    ca = correspondence_analysis(table)
    assert ca.row_coords.dim == 138
    chosen = select_columns(ca, table.col_labels[:30])
    d = euclidean_distances(chosen)
    criteria = ["ward", "average", "single", "complete", "mcquitty"]
    result = consensus_table(d, criteria)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    counts = result.counts
    np.testing.assert_array_equal(counts, counts.T)
    for p, criterion in enumerate(criteria):
        u = cophenetic(linkage(d, criterion))
        self_skips = consensus_count(u, u).skipped_ties
        assert counts[p, p] == 4060 - self_skips
    off_diagonal = counts[~np.eye(len(criteria), dtype=bool)]
    assert np.all(off_diagonal > 0)
    assert np.all(off_diagonal < 4060)


def test_criterion_10_determinism(rng, tmp_path):
    mirror_runs = []
    for sub in ("m1", "m2"):
        out = tmp_path / sub
        assert cli_main(["mirror", "25", "10", "--seed", "3",
                         "--out", str(out)]) == 0
        mirror_runs.append((out / "mirror.csv").read_bytes())
    assert mirror_runs[0] == mirror_runs[1]

    coords_path = tmp_path / "pts.csv"
    pts = CoordinateMatrix(rng.normal(size=(25, 3)))
    from umtk.matrixio import write_coordinates

    write_coordinates(coords_path, pts)
    coeffs_runs = []
    for sub in ("c1", "c2"):
        out = tmp_path / sub
        assert cli_main(["coeffs", "--coords", str(coords_path),
                         "--sample", "200", "--seed", "17",
                         "--out", str(out)]) == 0
        coeffs_runs.append(tuple(
            (out / name).read_bytes()
            for name in sorted(p.name for p in out.iterdir())
        ))
    assert coeffs_runs[0] == coeffs_runs[1]

    cloud = CoordinateMatrix(rng.normal(size=(60, 3)))
    assert alpha_epsilon(cloud) == alpha_epsilon(cloud)
    d = euclidean_distances(cloud)
    u_a = cophenetic(linkage(d, "ward"))
    u_b = cophenetic(linkage(d, "single"))
    first = consensus_count(u_a, u_b)
    again = consensus_count(u_a, u_b)
    assert (first.total_triplets, first.matched, first.skipped_ties) == (
        again.total_triplets, again.matched, again.skipped_ties
    )
    assert np.array_equal(first.matched_set, again.matched_set)
