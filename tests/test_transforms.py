import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from umtk.hierarchy import minmax_path_closure
from umtk.matrices import CoordinateMatrix, DissimilarityMatrix, euclidean_distances
from umtk.transforms import (
    cailliez_additive,
    check_metric,
    check_ultrametric,
    power_shrink,
)

from .conftest import random_dissimilarity, random_ultrametric, row_tuples
from .oracles import brute_strong_violations, brute_triangle_violations


def three_point(d12, d13, d23):
    return DissimilarityMatrix(
        np.array([[0.0, d12, d13], [d12, 0.0, 0.0], [d13, 0.0, 0.0]])
        + np.array([[0.0, 0.0, 0.0], [0.0, 0.0, d23], [0.0, d23, 0.0]])
    )


@st.composite
def dissimilarities(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    m = n * (n - 1) // 2
    vals = draw(
        st.lists(
            st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    out = np.zeros((n, n))
    out[np.triu_indices(n, k=1)] = vals
    return DissimilarityMatrix(out + out.T)


def test_check_metric_frozen_example():
    report = check_metric(three_point(1.0, 5.0, 1.0))
    assert report.kind == "triangle"
    assert row_tuples(*report.triples.T, report.slack) == [(0, 1, 2, 3.0)]
    assert report.triples.dtype == np.int64 and report.slack.dtype == np.float64
    assert bool(report)


def test_check_metric_empty_on_euclidean(rng):
    pts = CoordinateMatrix(rng.normal(size=(15, 3)))
    assert not check_metric(euclidean_distances(pts))


def test_check_metric_empty_on_ultrametric(rng):
    assert not check_metric(random_ultrametric(rng, 12))


def test_check_ultrametric_frozen_examples():
    assert not check_ultrametric(three_point(1.0, 2.0, 2.0))
    report = check_ultrametric(three_point(1.0, 2.0, 3.0))
    assert report.kind == "strong-triangle"
    assert row_tuples(*report.triples.T, report.slack) == [(0, 1, 2, 1.0)]


def test_check_ultrametric_empty_on_closure(rng):
    assert not check_ultrametric(random_ultrametric(rng, 15))


def test_tolerance_is_strict_threshold():
    d = three_point(1.0, 2.0, 3.0)
    loose = check_ultrametric(d, tolerance=1.0)
    assert loose.triples.shape == (0, 3) and loose.slack.shape == (0,)
    tight = check_ultrametric(d, tolerance=0.999)
    assert row_tuples(*tight.triples.T, tight.slack) == [(0, 1, 2, 1.0)]
    with pytest.raises(ValueError):
        check_metric(d, tolerance=-1e-9)


def test_violations_match_bruteforce(rng):
    for _ in range(10):
        d = random_dissimilarity(rng, 8)
        got = check_metric(d)
        expected = brute_triangle_violations(d.values, 0.0)
        assert row_tuples(*got.triples.T) == [v[:3] for v in expected]
        np.testing.assert_array_equal(got.slack, [v[3] for v in expected])
        got_u = check_ultrametric(d, tolerance=1e-9)
        expected_u = brute_strong_violations(d.values, 1e-9)
        assert row_tuples(*got_u.triples.T) == [v[:3] for v in expected_u]


def test_violations_listed_once_in_ascending_order(rng):
    d = random_dissimilarity(rng, 9)
    triples = row_tuples(*check_metric(d).triples.T)
    assert triples == sorted(set(triples))
    assert all(i < j < k for i, j, k in triples)


def test_cailliez_frozen_example():
    repaired, c = cailliez_additive(three_point(1.0, 5.0, 1.0))
    assert c == 3.0
    np.testing.assert_array_equal(
        repaired.values, np.array([[0.0, 4.0, 8.0], [4.0, 0.0, 4.0], [8.0, 4.0, 0.0]])
    )
    assert not check_metric(repaired)


def test_cailliez_second_frozen_example():
    _, c = cailliez_additive(three_point(2.0, 9.0, 3.0))
    assert c == 4.0


def test_cailliez_metric_input_unchanged(rng):
    d = euclidean_distances(CoordinateMatrix(rng.normal(size=(10, 3))))
    repaired, c = cailliez_additive(d)
    assert c == 0.0
    np.testing.assert_array_equal(repaired.values, d.values)


def test_cailliez_small_n():
    d = DissimilarityMatrix(np.array([[0.0, 7.0], [7.0, 0.0]]))
    repaired, c = cailliez_additive(d)
    assert c == 0.0
    np.testing.assert_array_equal(repaired.values, d.values)


@settings(max_examples=60, deadline=None)
@given(dissimilarities())
def test_cailliez_output_metric_and_idempotent(d):
    repaired, c = cailliez_additive(d)
    assert c >= 0.0
    assert not check_metric(repaired)
    again, c2 = cailliez_additive(repaired)
    assert c2 == 0.0
    np.testing.assert_array_equal(again.values, repaired.values)


def test_power_metric_input_returns_one(rng):
    d = euclidean_distances(CoordinateMatrix(rng.normal(size=(8, 3))))
    out, r = power_shrink(d)
    assert r == 1.0
    np.testing.assert_array_equal(out.values, d.values)


def test_power_frozen_example():
    out, r = power_shrink(three_point(1.0, 4.0, 1.0))
    # the binding triple solves 4**r = 2 at exactly one half, and the
    # bisection never moves off that endpoint
    assert r == 0.5
    np.testing.assert_array_equal(
        out.values, np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
    )


def test_power_rejects_off_diagonal_zero():
    with pytest.raises(ValueError, match="positive off-diagonal"):
        power_shrink(three_point(0.0, 1.0, 1.0))


def test_power_rejects_bad_tolerance(rng):
    with pytest.raises(ValueError):
        power_shrink(random_dissimilarity(rng, 4), r_tolerance=0.0)


@settings(max_examples=40, deadline=None)
@given(dissimilarities())
def test_power_output_certified_metric(d):
    out, r = power_shrink(d)
    assert 0.0 < r <= 1.0
    scale = float(out.values.max())
    assert not check_metric(out, tolerance=1e-12 * scale)
    # the predicate is monotone: half the exponent is also metric
    half = d.values ** (r / 2)
    np.fill_diagonal(half, 0.0)
    halved = DissimilarityMatrix(half)
    assert not check_metric(halved, tolerance=1e-12 * float(half.max()))


@settings(max_examples=40, deadline=None)
@given(dissimilarities())
def test_strong_triangle_implies_triangle(d):
    closed = minmax_path_closure(d)
    as_d = DissimilarityMatrix(closed.values, list(closed.labels))
    assert not check_ultrametric(as_d)
    assert not check_metric(as_d)
