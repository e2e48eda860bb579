import numpy as np
import pytest

from umtk.corpus import random_mirror
from umtk.matrices import (
    CoordinateMatrix,
    DissimilarityMatrix,
    FrequencyMatrix,
    euclidean_distances,
)
from umtk.spectral import (
    CaResult,
    SpectralResult,
    correspondence_analysis,
    gram_from_distances,
    metricity_coefficient,
    pcoa,
    select_columns,
)
from umtk.transforms import cailliez_additive

from .conftest import random_dissimilarity, traced_peak
from .oracles import brute_gram, ca_one_expression, chi2_profile_distances

COLLINEAR = DissimilarityMatrix(
    np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
)
NON_METRIC = DissimilarityMatrix(
    np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
)


def test_gram_collinear_frozen():
    a = gram_from_distances(COLLINEAR)
    np.testing.assert_allclose(
        a, np.array([[1.0, 0.0, -1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 1.0]]),
        atol=1e-15,
    )


def test_gram_all_zero():
    a = gram_from_distances(DissimilarityMatrix(np.zeros((3, 3))))
    np.testing.assert_array_equal(a, np.zeros((3, 3)))


def test_gram_equals_centered_cross_products(rng):
    pts = rng.uniform(size=(5, 2))
    d = euclidean_distances(CoordinateMatrix(pts))
    centered = pts - pts.mean(axis=0)
    np.testing.assert_allclose(
        gram_from_distances(d), centered @ centered.T, atol=1e-12
    )


def test_gram_matches_bruteforce(rng):
    d = random_dissimilarity(rng, 7)
    np.testing.assert_allclose(
        gram_from_distances(d), brute_gram(d.values), atol=1e-12
    )


def test_gram_rows_and_columns_sum_to_zero(rng):
    for _ in range(5):
        d = random_dissimilarity(rng, 9)
        a = gram_from_distances(d)
        tol = 1e-9 * np.abs(a).max()
        assert np.abs(a.sum(axis=0)).max() <= tol
        assert np.abs(a.sum(axis=1)).max() <= tol


def test_pcoa_collinear_frozen():
    coords, spectral, report = pcoa(COLLINEAR)
    np.testing.assert_allclose(spectral.eigenvalues, [2.0, 0.0, 0.0], atol=1e-12)
    assert coords.coords.shape == (3, 1)
    np.testing.assert_allclose(coords.coords[:, 0], [1.0, 0.0, -1.0], atol=1e-12)
    assert report.coefficient == 1.0


def test_pcoa_non_metric_frozen():
    _, spectral, report = pcoa(NON_METRIC)
    np.testing.assert_allclose(
        spectral.eigenvalues, [12.5, 0.0, -3.5], atol=1e-9
    )
    assert report.coefficient < 1.0
    np.testing.assert_allclose(report.coefficient, 0.78125, rtol=1e-12)


def test_pcoa_round_trip(rng):
    for n, k in [(20, 2), (40, 5), (11, 10)]:
        pts = rng.uniform(size=(n, k))
        d = euclidean_distances(CoordinateMatrix(pts))
        coords, _, report = pcoa(d)
        back = euclidean_distances(coords)
        np.testing.assert_allclose(back.values, d.values, rtol=1e-9, atol=1e-12)
        assert report.coefficient >= 1.0 - 1e-9


def test_pcoa_degenerate_input():
    with pytest.raises(ValueError, match="degenerate"):
        pcoa(DissimilarityMatrix(np.zeros((4, 4))))


def test_pcoa_keeps_labels():
    d = DissimilarityMatrix(COLLINEAR.values, ["p", "q", "r"])
    coords, _, _ = pcoa(d)
    assert coords.point_labels == ["p", "q", "r"]


def test_metricity_frozen_values():
    eye = np.eye(3)
    assert metricity_coefficient(SpectralResult(np.array([2.0, 0.0, 0.0]), eye)) == 1.0
    assert metricity_coefficient(SpectralResult(np.array([3.0, 1.0, -1.0]), eye)) == 0.8


def test_metricity_zero_spectrum_raises():
    with pytest.raises(ValueError, match="zero spectrum"):
        metricity_coefficient(SpectralResult(np.zeros(2), np.eye(2)))


def test_metricity_ignores_eigenvalues_inside_tolerance():
    eye = np.eye(2)
    spectral = SpectralResult(np.array([1.0, -1e-25]), eye)
    assert metricity_coefficient(spectral) == 1.0


def test_metricity_one_after_cailliez_repair(rng):
    repaired, c = cailliez_additive(NON_METRIC)
    assert c > 0
    _, _, report = pcoa(repaired)
    assert abs(report.coefficient - 1.0) <= 1e-9


def test_spectral_result_validation():
    with pytest.raises(ValueError, match="descending"):
        SpectralResult(np.array([1.0, 2.0]), np.eye(2))
    with pytest.raises(ValueError, match="orthonormal"):
        SpectralResult(np.array([2.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]))


def small_table():
    return FrequencyMatrix(
        np.array(
            [
                [10.0, 2.0, 5.0],
                [1.0, 8.0, 3.0],
                [4.0, 4.0, 9.0],
                [7.0, 1.0, 2.0],
            ]
        ),
        ["a", "b", "c", "d"],
        ["t1", "t2", "t3"],
    )


def test_ca_masses_and_axis_cap():
    ca = correspondence_analysis(small_table())
    assert abs(ca.row_masses.sum() - 1.0) <= 1e-12
    assert abs(ca.col_masses.sum() - 1.0) <= 1e-12
    assert ca.row_coords.dim <= 2
    assert np.all(np.diff(ca.singular_values) <= 0)


def test_ca_chi2_isometry(rng):
    f = small_table()
    ca = correspondence_analysis(f)
    got = euclidean_distances(ca.row_coords).values
    expected = chi2_profile_distances(f.values)
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_ca_chi2_isometry_random_tables(rng):
    for _ in range(5):
        vals = rng.integers(0, 20, size=(6, 9)).astype(float)
        vals[vals.sum(axis=1) == 0, 0] = 1.0
        vals[:, vals.sum(axis=0) == 0] += 1.0
        f = FrequencyMatrix(vals)
        ca = correspondence_analysis(f)
        got = euclidean_distances(ca.row_coords).values
        expected = chi2_profile_distances(vals)
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_ca_independence_table_has_no_axes():
    r = np.array([0.5, 0.3, 0.2])
    c = np.array([0.25, 0.25, 0.5])
    f = FrequencyMatrix(np.outer(r, c) * 40.0)
    ca = correspondence_analysis(f)
    assert ca.singular_values.size == 0
    assert ca.row_coords.dim == 0


def test_ca_rejects_zero_row_and_column():
    vals = np.array([[1.0, 2.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="'r2'"):
        correspondence_analysis(FrequencyMatrix(vals))
    vals = np.array([[1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="'c2'"):
        correspondence_analysis(FrequencyMatrix(vals))


def test_ca_deterministic_across_calls():
    a = correspondence_analysis(small_table())
    b = correspondence_analysis(small_table())
    np.testing.assert_array_equal(a.row_coords.coords, b.row_coords.coords)
    np.testing.assert_array_equal(a.col_coords.coords, b.col_coords.coords)


def test_ca_bits_match_the_one_expression_form(rng):
    # S is built in place in the expression's order, so every bit is the same
    tables = [rng.integers(0, 20, size=shape) + rng.random(shape)
              for shape in [(6, 9), (20, 7), (40, 300)]]
    for vals in tables + [random_mirror(139, 2000, seed=2).values]:
        ca = correspondence_analysis(FrequencyMatrix(vals))
        rows, cols, sigma = ca_one_expression(vals)
        assert ca.row_coords.coords.tobytes() == rows.tobytes()
        assert ca.col_coords.coords.tobytes() == cols.tobytes()
        assert ca.singular_values.tobytes() == sigma.tobytes()


def test_ca_peak_is_within_four_tables():
    table = random_mirror(139, 2000, seed=1)
    _, peak = traced_peak(lambda: correspondence_analysis(table))
    assert peak <= 4 * table.values.nbytes


def test_select_columns_order_duplicates_unknown():
    ca = correspondence_analysis(small_table())
    picked = select_columns(ca, ["t3", "t1"])
    assert picked.point_labels == ["t3", "t1"]
    np.testing.assert_array_equal(picked.coords[0], ca.col_coords.coords[2])
    np.testing.assert_array_equal(picked.coords[1], ca.col_coords.coords[0])

    doubled = select_columns(ca, ["t2", "t2"])
    np.testing.assert_array_equal(doubled.coords[0], doubled.coords[1])

    everything = select_columns(ca, ["t1", "t2", "t3"])
    np.testing.assert_array_equal(everything.coords, ca.col_coords.coords)

    with pytest.raises(KeyError, match="nope"):
        select_columns(ca, ["nope"])
